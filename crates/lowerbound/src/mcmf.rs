//! Minimum-cost maximum-flow solvers.
//!
//! Two implementations share one interface shape:
//!
//! * [`MinCostFlow`] — the original successive-shortest-paths solver with
//!   Johnson potentials, **one unit-bottleneck path per Dijkstra**. It is
//!   deliberately kept simple and serves as the reference oracle the
//!   optimized solver is property-tested against.
//! * [`McmfGraph`] — the arena-backed primal-dual solver the hot paths
//!   use: early-exit Dijkstra (stops once the sink's label is settled),
//!   **multi-unit augmentation per phase** (a blocking flow over the
//!   admissible zero-reduced-cost subgraph routes every unit the current
//!   potentials support, so a job pushes its whole remaining size along
//!   its cheapest-slot prefix instead of one unit per Dijkstra), and
//!   buffers that survive [`McmfGraph::reset`] so sweeps solving many
//!   instances stop reallocating. See `docs/SOLVER.md` for the design and
//!   the optimality argument.
//!
//! Capacities are integers (`i64`), costs are non-negative `f64`. With all
//! original costs non-negative the initial potentials are zero and every
//! iteration runs Dijkstra on reduced costs; tiny negative reduced costs
//! from floating-point rounding are clamped. This is exact for the
//! transportation LPs built in [`crate::lp`] (integral optimal solutions
//! exist; path costs are sums of ≤ 3 terms, so rounding error is ~ulps).
//! Both solvers expose the same independent negative-cycle certificate
//! (`verify_optimal`), so every optimized solve can be audited.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::budget::SolveBudget;

/// How many heap pops between budget polls inside Dijkstra. Polling
/// reads `Instant::now()` (~20ns); at this stride the overhead is
/// unmeasurable while a deadline is still honoured within ~a millisecond
/// on any realistic graph.
const BUDGET_POLL_POPS: u64 = 4096;

/// One directed edge; edge `i ^ 1` is its residual twin.
#[derive(Debug, Clone)]
struct Edge {
    to: u32,
    cap: i64,
    cost: f64,
}

/// A min-cost max-flow problem instance / solver.
#[derive(Debug, Default, Clone)]
pub struct MinCostFlow {
    graph: Vec<Vec<u32>>, // node -> indices into `edges`
    edges: Vec<Edge>,
    stats: McmfStats,
}

/// Result of a [`MinCostFlow::solve`] call.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FlowResult {
    /// Units of flow actually routed (≤ the requested amount).
    pub flow: i64,
    /// Total cost of the routed flow.
    pub cost: f64,
}

impl MinCostFlow {
    /// A problem with `n` nodes and no edges.
    pub fn new(n: usize) -> Self {
        MinCostFlow {
            graph: vec![Vec::new(); n],
            edges: Vec::new(),
            stats: McmfStats::default(),
        }
    }

    /// Work counters of the most recent [`MinCostFlow::solve`] call
    /// (same schema as the arena solver's [`McmfGraph::stats`], so the
    /// `mcmf.*` observability namespace is populated no matter which
    /// side of the size crossover a solve dispatched to). On this
    /// one-unit SSP solver every augmentation is its own phase and
    /// there is no blocking flow, so `blocking_pushes` and
    /// `fallback_augments` stay zero.
    pub fn stats(&self) -> McmfStats {
        self.stats
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.graph.len()
    }

    /// True iff the graph has no nodes.
    pub fn is_empty(&self) -> bool {
        self.graph.is_empty()
    }

    /// Add a directed edge `u → v` with capacity `cap ≥ 0` and cost
    /// `cost ≥ 0`. Returns the edge index (useful to query final flow via
    /// [`MinCostFlow::flow_on`]).
    ///
    /// # Panics
    /// If `cost` is negative or non-finite, or a node is out of range.
    pub fn add_edge(&mut self, u: usize, v: usize, cap: i64, cost: f64) -> usize {
        assert!(
            cost >= 0.0 && cost.is_finite(),
            "costs must be non-negative, got {cost}"
        );
        assert!(
            u < self.graph.len() && v < self.graph.len(),
            "node out of range"
        );
        let id = self.edges.len();
        self.graph[u].push(id as u32);
        self.edges.push(Edge {
            to: v as u32,
            cap,
            cost,
        });
        self.graph[v].push((id + 1) as u32);
        self.edges.push(Edge {
            to: u as u32,
            cap: 0,
            cost: -cost,
        });
        id
    }

    /// Flow currently on edge `id` (as returned by `add_edge`).
    pub fn flow_on(&self, id: usize) -> i64 {
        self.edges[id ^ 1].cap
    }

    /// [`MinCostFlow::solve`] under a cooperative [`SolveBudget`]:
    /// returns `None` as soon as the budget trips, polled once per
    /// augmentation phase (each phase on the small instances this solver
    /// is dispatched to — see `lp.rs`'s crossover — runs in microseconds,
    /// so the deadline is honoured well within a millisecond). On `None`
    /// the graph is left mid-solve and must not be reused.
    pub fn solve_budgeted(
        &mut self,
        s: usize,
        t: usize,
        target: i64,
        budget: &SolveBudget,
    ) -> Option<FlowResult> {
        let _obs_span = tf_obs::span!("mcmf", "solve");
        self.stats = McmfStats::default();
        let poll_budget = !budget.is_unlimited();
        let n = self.graph.len();
        let mut potential = vec![0.0f64; n];
        let mut dist = vec![f64::INFINITY; n];
        let mut prev_edge = vec![u32::MAX; n];
        let mut total_flow = 0i64;
        let mut total_cost = 0.0f64;

        while total_flow < target {
            if poll_budget && budget.exhausted() {
                return None;
            }
            // Dijkstra on reduced costs, stopping as soon as the sink is
            // settled: nodes popped later cannot lie on a shortest s-t
            // path under nonnegative reduced costs.
            let _dij_span = tf_obs::span!("mcmf", "dijkstra");
            dist.fill(f64::INFINITY);
            prev_edge.fill(u32::MAX);
            dist[s] = 0.0;
            let mut heap: BinaryHeap<Reverse<HeapItem>> = BinaryHeap::new();
            heap.push(Reverse(HeapItem {
                dist: 0.0,
                node: s as u32,
            }));
            while let Some(Reverse(HeapItem { dist: d, node })) = heap.pop() {
                self.stats.heap_pops += 1;
                let u = node as usize;
                if d > dist[u] {
                    continue;
                }
                if u == t {
                    break;
                }
                for &eid in &self.graph[u] {
                    let e = &self.edges[eid as usize];
                    if e.cap <= 0 {
                        continue;
                    }
                    self.stats.arcs_scanned += 1;
                    let v = e.to as usize;
                    // Reduced cost; clamp fp noise.
                    let rc = (e.cost + potential[u] - potential[v]).max(0.0);
                    let nd = d + rc;
                    if nd < dist[v] {
                        dist[v] = nd;
                        prev_edge[v] = eid;
                        heap.push(Reverse(HeapItem {
                            dist: nd,
                            node: v as u32,
                        }));
                    }
                }
            }
            drop(_dij_span);
            if !dist[t].is_finite() {
                break; // no augmenting path
            }
            // Potential update capped at the sink's label: unsettled nodes
            // carry tentative (over-)estimates, so adding them raw could
            // leave negative reduced costs. `min(d, dist[t])` preserves
            // the nonnegativity invariant for every residual edge.
            let cap_d = dist[t];
            for (p, &d) in potential.iter_mut().zip(&dist) {
                *p += d.min(cap_d);
            }
            // Bottleneck along the path.
            let mut push = target - total_flow;
            let mut v = t;
            while v != s {
                let eid = prev_edge[v] as usize;
                push = push.min(self.edges[eid].cap);
                v = self.edges[eid ^ 1].to as usize;
            }
            let mut v = t;
            while v != s {
                let eid = prev_edge[v] as usize;
                self.edges[eid].cap -= push;
                self.edges[eid ^ 1].cap += push;
                total_cost += self.edges[eid].cost * push as f64;
                v = self.edges[eid ^ 1].to as usize;
            }
            total_flow += push;
            self.stats.phases += 1;
            self.stats.units_routed += push as u64;
        }
        Some(FlowResult {
            flow: total_flow,
            cost: total_cost,
        })
    }

    /// Route up to `target` units of flow from `s` to `t` at minimum cost.
    /// Routes the maximum feasible amount if less than `target` fits.
    pub fn solve(&mut self, s: usize, t: usize, target: i64) -> FlowResult {
        self.solve_budgeted(s, t, target, &SolveBudget::unlimited())
            .expect("an unlimited budget never aborts a solve")
    }

    /// Independent optimality certificate for the current flow: a flow of
    /// its value is minimum-cost **iff the residual graph has no
    /// negative-cost cycle** (the classical criterion — it does not depend
    /// on how the flow was computed). Runs Bellman–Ford over all residual
    /// edges; `tol` absorbs f64 rounding along cycles.
    ///
    /// Intended for tests and audits (`O(V·E)`), not hot paths.
    pub fn verify_optimal(&self, tol: f64) -> bool {
        let n = self.graph.len();
        let mut dist = vec![0.0f64; n]; // virtual super-source to all nodes
        for round in 0..n {
            let mut changed = false;
            for u in 0..n {
                for &eid in &self.graph[u] {
                    let e = &self.edges[eid as usize];
                    if e.cap <= 0 {
                        continue;
                    }
                    let v = e.to as usize;
                    if dist[u] + e.cost < dist[v] - tol {
                        dist[v] = dist[u] + e.cost;
                        changed = true;
                    }
                }
            }
            if !changed {
                return true; // converged: no negative cycle
            }
            if round == n - 1 {
                return false; // still relaxing after V rounds: negative cycle
            }
        }
        true
    }
}

/// Work counters for the most recent [`McmfGraph::solve`] call. All
/// counts are exact and deterministic (they depend only on the instance,
/// never on wall-clock or thread scheduling), so they double as
/// regression-test material. Retrieve via [`McmfGraph::stats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct McmfStats {
    /// Primal-dual phases run (one Dijkstra + one blocking flow each).
    pub phases: u64,
    /// Nodes popped from the Dijkstra heap across all phases.
    pub heap_pops: u64,
    /// Residual arcs relaxed (scanned with positive capacity) in Dijkstra.
    pub arcs_scanned: u64,
    /// Augmenting paths applied inside blocking flows.
    pub blocking_pushes: u64,
    /// Times the single-path fallback ([`McmfGraph`] docs) had to fire.
    pub fallback_augments: u64,
    /// Total units of flow routed.
    pub units_routed: u64,
}

impl McmfStats {
    /// These counters as a flat [`tf_obs::ObsRegistry`] under the `mcmf.`
    /// namespace, mergeable with `sim.` and `cache.` registries.
    pub fn registry(&self) -> tf_obs::ObsRegistry {
        tf_obs::ObsRegistry::from_counters([
            ("mcmf.phases", self.phases as f64),
            ("mcmf.heap_pops", self.heap_pops as f64),
            ("mcmf.arcs_scanned", self.arcs_scanned as f64),
            ("mcmf.blocking_pushes", self.blocking_pushes as f64),
            ("mcmf.fallback_augments", self.fallback_augments as f64),
            ("mcmf.units_routed", self.units_routed as f64),
        ])
    }

    /// Fold another solve's counters into this one (all fields sum).
    pub fn absorb(&mut self, other: &McmfStats) {
        self.phases += other.phases;
        self.heap_pops += other.heap_pops;
        self.arcs_scanned += other.arcs_scanned;
        self.blocking_pushes += other.blocking_pushes;
        self.fallback_augments += other.fallback_augments;
        self.units_routed += other.units_routed;
    }
}

/// Admissibility of a residual arc under the current potentials: reduced
/// cost `cost + π[u] − π[v]` is (numerically) zero. The tolerance scales
/// with the operand magnitudes so large-horizon, large-`k` costs don't
/// starve the admissible graph of the arcs Dijkstra actually relaxed.
#[inline]
fn admissible(cost: f64, pot_u: f64, pot_v: f64) -> bool {
    let rc = cost + pot_u - pot_v;
    rc <= 1e-9 * (1.0 + cost.abs() + pot_u.abs() + pot_v.abs())
}

/// Arena-backed min-cost max-flow solver for the LP hot path.
///
/// Same problem class as [`MinCostFlow`] (non-negative costs, integral
/// capacities) but engineered for throughput on the transportation
/// networks [`crate::lp`] builds:
///
/// * **Flat arc storage** (`tail`/`head`/`cap`/`cost` vectors with a
///   lazily rebuilt CSR adjacency) instead of per-node `Vec<u32>` edge
///   lists — one allocation each, reused across solves via
///   [`McmfGraph::reset`].
/// * **Early-exit Dijkstra**: stops as soon as the sink pops, and the
///   potential update is capped at the sink's label
///   (`π[v] += min(dist[v], dist[t])`) which preserves non-negative
///   reduced costs even for unsettled nodes.
/// * **Multi-unit phases**: after each Dijkstra, a Dinic-style blocking
///   flow over the admissible (zero-reduced-cost) subgraph routes every
///   unit the current potentials support. Each admissible s→t path costs
///   exactly `π[t] − π[s]` per unit — the shortest-path cost — so the
///   aggregate push is cost-optimal (see `docs/SOLVER.md`); a job pushes
///   its whole remaining size along its cheapest-slot prefix in one
///   phase instead of one unit per Dijkstra.
///
/// Call [`McmfGraph::solve`] **once per built graph** (as the LP layer
/// does): potentials and the reported cost assume the graph starts with
/// zero flow. [`McmfGraph::verify_optimal`] provides the same
/// independent negative-cycle certificate as the reference solver.
#[derive(Debug, Default, Clone)]
pub struct McmfGraph {
    n: usize,
    // Arc `2i` is the i-th added edge, `2i ^ 1` its residual twin.
    tail: Vec<u32>,
    head: Vec<u32>,
    cap: Vec<i64>,
    cost: Vec<f64>,
    // CSR adjacency over arcs, rebuilt lazily after insertions.
    csr_start: Vec<u32>,
    csr_arcs: Vec<u32>,
    csr_built: bool,
    // Scratch buffers surviving `reset` so sweeps stop reallocating.
    potential: Vec<f64>,
    dist: Vec<f64>,
    prev_arc: Vec<u32>,
    level: Vec<u32>,
    cur: Vec<u32>,
    queue: Vec<u32>,
    path: Vec<u32>,
    heap: DaryHeap,
    stats: McmfStats,
}

impl McmfGraph {
    /// An empty arena; call [`McmfGraph::reset`] to size it.
    pub fn new() -> Self {
        Self::default()
    }

    /// Clear the graph and set the node count, keeping every buffer's
    /// allocation for reuse.
    pub fn reset(&mut self, n: usize) {
        self.n = n;
        self.tail.clear();
        self.head.clear();
        self.cap.clear();
        self.cost.clear();
        self.csr_built = false;
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.n
    }

    /// True iff the graph has no nodes.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Add a directed edge `u → v` with capacity `cap ≥ 0` and cost
    /// `cost ≥ 0`. Returns the edge id for [`McmfGraph::flow_on`].
    ///
    /// # Panics
    /// If `cost` is negative or non-finite, or a node is out of range.
    pub fn add_edge(&mut self, u: usize, v: usize, cap: i64, cost: f64) -> usize {
        assert!(
            cost >= 0.0 && cost.is_finite(),
            "costs must be non-negative, got {cost}"
        );
        assert!(u < self.n && v < self.n, "node out of range");
        let id = self.tail.len();
        self.tail.push(u as u32);
        self.head.push(v as u32);
        self.cap.push(cap);
        self.cost.push(cost);
        self.tail.push(v as u32);
        self.head.push(u as u32);
        self.cap.push(0);
        self.cost.push(-cost);
        self.csr_built = false;
        id
    }

    /// Flow currently on edge `id` (as returned by `add_edge`).
    pub fn flow_on(&self, id: usize) -> i64 {
        self.cap[id ^ 1]
    }

    /// Work counters of the most recent [`McmfGraph::solve`] call.
    pub fn stats(&self) -> McmfStats {
        self.stats
    }

    fn build_csr(&mut self) {
        let m = self.tail.len();
        self.csr_start.clear();
        self.csr_start.resize(self.n + 1, 0);
        for &u in &self.tail {
            self.csr_start[u as usize + 1] += 1;
        }
        for i in 0..self.n {
            self.csr_start[i + 1] += self.csr_start[i];
        }
        self.csr_arcs.clear();
        self.csr_arcs.resize(m, 0);
        // `cur` doubles as the CSR fill cursor here.
        self.cur.clear();
        self.cur.extend_from_slice(&self.csr_start[..self.n]);
        for a in 0..m {
            let u = self.tail[a] as usize;
            self.csr_arcs[self.cur[u] as usize] = a as u32;
            self.cur[u] += 1;
        }
        self.csr_built = true;
    }

    /// Shortest reduced-cost distances from `s`, stopping once `t` pops.
    /// Returns false iff `t` is unreachable in the residual graph.
    /// Returns `Some(reachable)` normally, `None` if `budget` tripped
    /// mid-search (polled every [`BUDGET_POLL_POPS`] heap pops, so a
    /// deadline is honoured even inside one long shortest-path pass).
    fn dijkstra(&mut self, s: usize, t: usize, budget: &SolveBudget) -> Option<bool> {
        let n = self.n;
        self.dist.clear();
        self.dist.resize(n, f64::INFINITY);
        self.prev_arc.clear();
        self.prev_arc.resize(n, u32::MAX);
        self.heap.clear();
        self.dist[s] = 0.0;
        self.heap.push(HeapItem {
            dist: 0.0,
            node: s as u32,
        });
        let Self {
            heap,
            dist,
            prev_arc,
            csr_start,
            csr_arcs,
            cap,
            cost,
            head,
            potential,
            stats,
            ..
        } = self;
        // Counters accumulate in locals so the loop body stays lean.
        let mut pops = 0u64;
        let mut scanned = 0u64;
        let poll_budget = !budget.is_unlimited();
        while let Some(HeapItem { dist: d, node }) = heap.pop() {
            let u = node as usize;
            pops += 1;
            if poll_budget && pops.is_multiple_of(BUDGET_POLL_POPS) && budget.exhausted() {
                stats.heap_pops += pops;
                stats.arcs_scanned += scanned;
                return None;
            }
            if d > dist[u] {
                continue;
            }
            if u == t {
                break;
            }
            for &arc in &csr_arcs[csr_start[u] as usize..csr_start[u + 1] as usize] {
                let a = arc as usize;
                if cap[a] <= 0 {
                    continue;
                }
                scanned += 1;
                let v = head[a] as usize;
                let rc = (cost[a] + potential[u] - potential[v]).max(0.0);
                let nd = d + rc;
                if nd < dist[v] {
                    dist[v] = nd;
                    prev_arc[v] = a as u32;
                    heap.push(HeapItem {
                        dist: nd,
                        node: v as u32,
                    });
                }
            }
        }
        stats.heap_pops += pops;
        stats.arcs_scanned += scanned;
        Some(dist[t].is_finite())
    }

    /// BFS hop levels over the admissible residual subgraph, restricted
    /// to the region the preceding Dijkstra settled: nodes with label
    /// `dist ≤ max_dist` (the shortest `s→t` distance). Returns false iff
    /// `t` is unreachable through admissible arcs in that region.
    ///
    /// The restriction is a pure profile win, not an approximation. The
    /// Dijkstra predecessor chain of `t` lies entirely inside the region
    /// (every chain node popped with a final label `≤ dist[t]`) and every
    /// chain arc is tight after the capped potential update, so at least
    /// one augmenting path always survives the filter — each phase still
    /// makes progress, and pushing only along reduced-cost-zero arcs
    /// preserves the primal-dual invariant exactly as before. What the
    /// filter drops are *tied* alternative paths through nodes whose
    /// capped label exceeds `dist[t]`; missing them can only trade a few
    /// extra (cheap) phases for not re-scanning the whole arc array every
    /// phase, which profiling showed dominated large solves.
    fn bfs_levels(&mut self, s: usize, t: usize, max_dist: f64) -> bool {
        self.level.clear();
        self.level.resize(self.n, u32::MAX);
        self.queue.clear();
        self.level[s] = 0;
        self.queue.push(s as u32);
        let mut qi = 0;
        while qi < self.queue.len() {
            let u = self.queue[qi] as usize;
            qi += 1;
            let lu = self.level[u];
            for idx in self.csr_start[u] as usize..self.csr_start[u + 1] as usize {
                let a = self.csr_arcs[idx] as usize;
                if self.cap[a] <= 0 {
                    continue;
                }
                let v = self.head[a] as usize;
                if self.level[v] != u32::MAX
                    || self.dist[v] > max_dist
                    || !admissible(self.cost[a], self.potential[u], self.potential[v])
                {
                    continue;
                }
                self.level[v] = lu + 1;
                self.queue.push(v as u32);
            }
        }
        self.level[t] != u32::MAX
    }

    /// Dinic blocking flow on the admissible level graph; pushes at most
    /// `limit` units. The level graph is a DAG (levels strictly
    /// increase), so zero-cost residual cycles — every admissible arc
    /// carrying flow has an admissible twin — cannot trap the DFS.
    fn blocking_flow(&mut self, s: usize, t: usize, limit: i64) -> i64 {
        self.cur.clear();
        self.cur.extend_from_slice(&self.csr_start[..self.n]);
        self.path.clear();
        let mut pushed = 0i64;
        loop {
            let u = match self.path.last() {
                Some(&a) => self.head[a as usize] as usize,
                None => s,
            };
            if u == t {
                let mut push = limit - pushed;
                for &a in &self.path {
                    push = push.min(self.cap[a as usize]);
                }
                for &a in &self.path {
                    self.cap[a as usize] -= push;
                    self.cap[a as usize ^ 1] += push;
                }
                pushed += push;
                self.stats.blocking_pushes += 1;
                if pushed >= limit {
                    break;
                }
                // Retreat to just before the first saturated arc.
                let mut keep = 0;
                while keep < self.path.len() && self.cap[self.path[keep] as usize] > 0 {
                    keep += 1;
                }
                self.path.truncate(keep);
                continue;
            }
            let mut advanced = false;
            while self.cur[u] < self.csr_start[u + 1] {
                let a = self.csr_arcs[self.cur[u] as usize] as usize;
                let v = self.head[a] as usize;
                if self.cap[a] > 0
                    && self.level[v] == self.level[u] + 1
                    && admissible(self.cost[a], self.potential[u], self.potential[v])
                {
                    self.path.push(a as u32);
                    advanced = true;
                    break;
                }
                self.cur[u] += 1;
            }
            if !advanced {
                if u == s {
                    break;
                }
                self.level[u] = u32::MAX; // dead end for this phase
                let a = self.path.pop().expect("non-source node has a parent") as usize;
                let p = self.tail[a] as usize;
                self.cur[p] += 1;
            }
        }
        pushed
    }

    /// Fallback single-path augmentation along the Dijkstra predecessor
    /// chain. Only reachable if floating-point admissibility filtering
    /// dropped every arc of the shortest path; guarantees the phase
    /// still makes progress.
    fn augment_prev_path(&mut self, s: usize, t: usize, limit: i64) -> i64 {
        let mut push = limit;
        let mut v = t;
        while v != s {
            let a = self.prev_arc[v];
            if a == u32::MAX {
                return 0;
            }
            push = push.min(self.cap[a as usize]);
            v = self.tail[a as usize] as usize;
        }
        if push <= 0 {
            return 0;
        }
        let mut v = t;
        while v != s {
            let a = self.prev_arc[v] as usize;
            self.cap[a] -= push;
            self.cap[a ^ 1] += push;
            v = self.tail[a] as usize;
        }
        push
    }

    /// Route up to `target` units of flow from `s` to `t` at minimum
    /// cost, the maximum feasible amount if less fits. Call once per
    /// built graph; the reported cost is that of all flow in the graph,
    /// accumulated deterministically arc-by-arc at the end (so it does
    /// not depend on the augmentation order).
    pub fn solve(&mut self, s: usize, t: usize, target: i64) -> FlowResult {
        self.solve_budgeted(s, t, target, &SolveBudget::unlimited())
            .expect("an unlimited budget never aborts a solve")
    }

    /// [`McmfGraph::solve`] under a cooperative [`SolveBudget`]: returns
    /// `None` (instead of a partial, meaningless flow) as soon as the
    /// budget trips — checked at every phase boundary and every few
    /// thousand heap pops inside Dijkstra. On `None` the residual graph
    /// is left mid-solve and must not be reused for another solve.
    pub fn solve_budgeted(
        &mut self,
        s: usize,
        t: usize,
        target: i64,
        budget: &SolveBudget,
    ) -> Option<FlowResult> {
        assert!(s < self.n && t < self.n, "node out of range");
        let mut obs_span = tf_obs::span!("mcmf", "solve");
        if !self.csr_built {
            self.build_csr();
        }
        self.potential.clear();
        self.potential.resize(self.n, 0.0);
        self.stats = McmfStats::default();
        let poll_budget = !budget.is_unlimited();
        let mut total_flow = 0i64;
        while total_flow < target {
            if poll_budget && budget.exhausted() {
                tf_obs::instant!("mcmf", "budget_abort");
                return None;
            }
            let reachable = {
                let _s = tf_obs::span!("mcmf", "dijkstra");
                self.dijkstra(s, t, budget)?
            };
            if !reachable {
                break;
            }
            // Capped potential update (see the struct docs).
            let cap_d = self.dist[t];
            for (p, &d) in self.potential.iter_mut().zip(&self.dist) {
                *p += d.min(cap_d);
            }
            let mut pushed = {
                let _s = tf_obs::span!("mcmf", "blocking_flow");
                if self.bfs_levels(s, t, cap_d) {
                    self.blocking_flow(s, t, target - total_flow)
                } else {
                    0
                }
            };
            if pushed == 0 {
                pushed = self.augment_prev_path(s, t, target - total_flow);
                if pushed > 0 {
                    self.stats.fallback_augments += 1;
                }
            }
            if pushed == 0 {
                break; // defensive: cannot represent further progress
            }
            total_flow += pushed;
            self.stats.phases += 1;
        }
        self.stats.units_routed = total_flow.max(0) as u64;
        if tf_obs::enabled() {
            obs_span.arg("nodes", self.n as f64);
            obs_span.arg("arcs", (self.cap.len() / 2) as f64);
            obs_span.arg("flow", total_flow as f64);
            tf_obs::counter!("mcmf", "phases", self.stats.phases as f64);
            tf_obs::counter!("mcmf", "heap_pops", self.stats.heap_pops as f64);
            tf_obs::counter!("mcmf", "arcs_scanned", self.stats.arcs_scanned as f64);
            tf_obs::counter!("mcmf", "blocking_pushes", self.stats.blocking_pushes as f64);
        }
        let mut total_cost = 0.0f64;
        for a in (0..self.cap.len()).step_by(2) {
            let routed = self.cap[a ^ 1];
            if routed > 0 {
                total_cost += self.cost[a] * routed as f64;
            }
        }
        Some(FlowResult {
            flow: total_flow,
            cost: total_cost,
        })
    }

    /// The current node potentials (duals) — empty before the first
    /// solve. Column generation prices its omitted columns against them.
    pub fn potentials(&self) -> &[f64] {
        &self.potential
    }

    /// Independent optimality certificate: Bellman–Ford over the residual
    /// arcs, exactly as [`MinCostFlow::verify_optimal`].
    pub fn verify_optimal(&self, tol: f64) -> bool {
        let _obs_span = tf_obs::span!("mcmf", "verify_optimal");
        let n = self.n;
        let mut dist = vec![0.0f64; n];
        for round in 0..n {
            let mut changed = false;
            for a in 0..self.cap.len() {
                if self.cap[a] <= 0 {
                    continue;
                }
                let u = self.tail[a] as usize;
                let v = self.head[a] as usize;
                if dist[u] + self.cost[a] < dist[v] - tol {
                    dist[v] = dist[u] + self.cost[a];
                    changed = true;
                }
            }
            if !changed {
                return true;
            }
            if round == n - 1 {
                return false;
            }
        }
        true
    }
}

/// Heap entry ordered by `dist` (f64), with a total order for the heap.
#[derive(Clone, Debug, PartialEq)]
struct HeapItem {
    dist: f64,
    node: u32,
}

impl Eq for HeapItem {}
impl Ord for HeapItem {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.dist
            .partial_cmp(&other.dist)
            .expect("finite distances")
            .then_with(|| self.node.cmp(&other.node))
    }
}
impl PartialOrd for HeapItem {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// Flat 4-ary min-heap over [`HeapItem`]s, replacing
/// `BinaryHeap<Reverse<HeapItem>>` on the Dijkstra hot path. Span
/// profiles attribute most solver time to `mcmf.dijkstra`, and most of
/// that to heap traffic; a 4-ary layout halves the tree depth (sift-up
/// cost on the push-heavy workload) and keeps each sift-down's child
/// scan inside one cache line.
///
/// Determinism: `HeapItem`'s ordering is *total* (dist, then node), and
/// Dijkstra never holds two equal items (a node is re-pushed only with a
/// strictly smaller dist), so the minimum is unique at every pop — any
/// correct heap, this one included, yields the identical pop sequence to
/// the binary heap it replaces. Solver output is bit-for-bit unchanged.
#[derive(Debug, Default, Clone)]
struct DaryHeap {
    items: Vec<HeapItem>,
}

impl DaryHeap {
    const D: usize = 4;

    fn clear(&mut self) {
        self.items.clear();
    }

    fn push(&mut self, item: HeapItem) {
        self.items.push(item);
        let mut i = self.items.len() - 1;
        while i > 0 {
            let parent = (i - 1) / Self::D;
            if self.items[i] < self.items[parent] {
                self.items.swap(i, parent);
                i = parent;
            } else {
                break;
            }
        }
    }

    fn pop(&mut self) -> Option<HeapItem> {
        let n = self.items.len();
        if n == 0 {
            return None;
        }
        self.items.swap(0, n - 1);
        let top = self.items.pop();
        let n = self.items.len();
        let mut i = 0;
        loop {
            let first = i * Self::D + 1;
            if first >= n {
                break;
            }
            let last = (first + Self::D).min(n);
            let mut best = first;
            for c in first + 1..last {
                if self.items[c] < self.items[best] {
                    best = c;
                }
            }
            if self.items[best] < self.items[i] {
                self.items.swap(i, best);
                i = best;
            } else {
                break;
            }
        }
        top
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_edge() {
        let mut g = MinCostFlow::new(2);
        let e = g.add_edge(0, 1, 5, 2.0);
        let r = g.solve(0, 1, 3);
        assert_eq!(r, FlowResult { flow: 3, cost: 6.0 });
        assert_eq!(g.flow_on(e), 3);
    }

    #[test]
    fn caps_limit_flow() {
        let mut g = MinCostFlow::new(2);
        g.add_edge(0, 1, 2, 1.0);
        let r = g.solve(0, 1, 10);
        assert_eq!(r.flow, 2);
        assert_eq!(r.cost, 2.0);
    }

    #[test]
    fn prefers_cheap_path_then_spills() {
        // Two parallel paths 0→1: direct cost 1 cap 1; via 2 cost 3 cap 5.
        let mut g = MinCostFlow::new(3);
        g.add_edge(0, 1, 1, 1.0);
        g.add_edge(0, 2, 5, 1.0);
        g.add_edge(2, 1, 5, 2.0);
        let r = g.solve(0, 1, 3);
        assert_eq!(r.flow, 3);
        assert!((r.cost - (1.0 + 2.0 * 3.0)).abs() < 1e-9);
    }

    #[test]
    fn rerouting_through_residual_edges() {
        // Classic rerouting: a greedy first path must be partially undone.
        //    0 →(1,$1) 1 →(1,$1) 3
        //    0 →(1,$2) 2 →(1,$2) 3
        //    1 →(1,$0) 2
        // Max flow 2; optimal routes 0-1-3 and 0-2-3 (cost 1+1+2+2 = 6).
        // A naive shortest-first pass may try 0-1-2-3; SSP must still land
        // on 6 total.
        let mut g = MinCostFlow::new(4);
        g.add_edge(0, 1, 1, 1.0);
        g.add_edge(1, 3, 1, 1.0);
        g.add_edge(0, 2, 1, 2.0);
        g.add_edge(2, 3, 1, 2.0);
        g.add_edge(1, 2, 1, 0.0);
        let r = g.solve(0, 3, 2);
        assert_eq!(r.flow, 2);
        assert!((r.cost - 6.0).abs() < 1e-9);
    }

    #[test]
    fn transportation_instance_matches_hand_optimum() {
        // 2 supplies × 2 sinks. Supply a: 2 units, b: 1 unit. Sinks x: cap
        // 2, y: cap 2. Costs: a→x 1, a→y 5, b→x 2, b→y 1.
        // Optimum: a sends 2 to x (2), b sends 1 to y (1). Total 3.
        let (s, a, b, x, y, t) = (0, 1, 2, 3, 4, 5);
        let mut g = MinCostFlow::new(6);
        g.add_edge(s, a, 2, 0.0);
        g.add_edge(s, b, 1, 0.0);
        g.add_edge(a, x, 9, 1.0);
        g.add_edge(a, y, 9, 5.0);
        g.add_edge(b, x, 9, 2.0);
        g.add_edge(b, y, 9, 1.0);
        g.add_edge(x, t, 2, 0.0);
        g.add_edge(y, t, 2, 0.0);
        let r = g.solve(s, t, 3);
        assert_eq!(r.flow, 3);
        assert!((r.cost - 3.0).abs() < 1e-9);
    }

    #[test]
    fn contention_forces_expensive_slots() {
        // Like one LP slot capacity: both supplies want sink x (cheap) but
        // x caps at 1.
        let (s, a, b, x, y, t) = (0, 1, 2, 3, 4, 5);
        let mut g = MinCostFlow::new(6);
        g.add_edge(s, a, 1, 0.0);
        g.add_edge(s, b, 1, 0.0);
        g.add_edge(a, x, 1, 1.0);
        g.add_edge(a, y, 1, 10.0);
        g.add_edge(b, x, 1, 1.0);
        g.add_edge(b, y, 1, 2.0);
        g.add_edge(x, t, 1, 0.0);
        g.add_edge(y, t, 9, 0.0);
        let r = g.solve(s, t, 2);
        assert_eq!(r.flow, 2);
        // a takes x (1), b takes y (2).
        assert!((r.cost - 3.0).abs() < 1e-9);
    }

    #[test]
    fn disconnected_sink_routes_nothing() {
        let mut g = MinCostFlow::new(3);
        g.add_edge(0, 1, 1, 1.0);
        let r = g.solve(0, 2, 5);
        assert_eq!(r, FlowResult { flow: 0, cost: 0.0 });
    }

    #[test]
    fn zero_target_is_a_noop() {
        let mut g = MinCostFlow::new(2);
        g.add_edge(0, 1, 1, 1.0);
        let r = g.solve(0, 1, 0);
        assert_eq!(r, FlowResult { flow: 0, cost: 0.0 });
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_costs_rejected() {
        let mut g = MinCostFlow::new(2);
        g.add_edge(0, 1, 1, -1.0);
    }

    #[test]
    fn solver_output_passes_optimality_certificate() {
        // Reuse the rerouting instance: after solve, the residual graph
        // must be free of negative cycles.
        let mut g = MinCostFlow::new(4);
        g.add_edge(0, 1, 1, 1.0);
        g.add_edge(1, 3, 1, 1.0);
        g.add_edge(0, 2, 1, 2.0);
        g.add_edge(2, 3, 1, 2.0);
        g.add_edge(1, 2, 1, 0.0);
        g.solve(0, 3, 2);
        assert!(g.verify_optimal(1e-9));
    }

    #[test]
    fn certificate_rejects_suboptimal_flows() {
        // Hand-build a suboptimal routing: push along the expensive path
        // while the cheap one is idle → residual negative cycle.
        //   0 →(cap1,$1) 1 →(cap1,$1) 3   (cheap, idle)
        //   0 →(cap1,$5) 2 →(cap1,$5) 3   (expensive, used)
        //   1 ↔ 2 free edges to close the cycle.
        let mut g = MinCostFlow::new(4);
        let _cheap1 = g.add_edge(0, 1, 1, 1.0);
        let _cheap2 = g.add_edge(1, 3, 1, 1.0);
        let exp1 = g.add_edge(0, 2, 1, 5.0);
        let exp2 = g.add_edge(2, 3, 1, 5.0);
        g.add_edge(1, 2, 1, 0.0);
        g.add_edge(2, 1, 1, 0.0);
        // Manually saturate the expensive path (bypassing solve).
        for id in [exp1, exp2] {
            g.edges[id].cap -= 1;
            g.edges[id ^ 1].cap += 1;
        }
        assert!(!g.verify_optimal(1e-9));
    }

    #[test]
    fn lp_solutions_are_certified_optimal() {
        // End-to-end: the LP builder's solved network passes the
        // independent certificate (exercised for a couple of shapes).
        use tf_simcore::Trace;
        for pairs in [
            vec![(0.0, 2.0), (0.0, 1.0), (1.0, 3.0)],
            vec![(0.0, 1.0), (2.0, 2.0), (2.0, 2.0), (5.0, 1.0)],
        ] {
            let t = Trace::from_pairs(pairs).unwrap();
            // Rebuild the LP network by hand via the public API is not
            // exposed; instead exercise the solver on the same shape:
            // jobs → slots with increasing costs.
            let n = t.len();
            let horizon = t.makespan_upper_bound(1.0).ceil() as usize + 1;
            let (s, sink) = (0usize, 1 + n + horizon);
            let mut g = MinCostFlow::new(sink + 1);
            let mut supply = 0;
            for (ji, j) in t.jobs().iter().enumerate() {
                let p = j.size.round() as i64;
                supply += p;
                g.add_edge(s, 1 + ji, p, 0.0);
                for slot in (j.arrival as usize)..horizon {
                    let age = slot as f64 - j.arrival;
                    g.add_edge(
                        1 + ji,
                        1 + n + slot,
                        1,
                        (age * age + j.size * j.size) / j.size,
                    );
                }
            }
            for slot in 0..horizon {
                g.add_edge(1 + n + slot, sink, 1, 0.0);
            }
            let r = g.solve(s, sink, supply);
            assert_eq!(r.flow, supply);
            assert!(g.verify_optimal(1e-6), "negative residual cycle left");
        }
    }

    /// Run both solvers on the same instance, demand identical flow and
    /// matching cost, and certify the optimized solver's flow.
    fn cross_check(
        n: usize,
        edges: &[(usize, usize, i64, f64)],
        s: usize,
        t: usize,
        target: i64,
    ) -> FlowResult {
        let mut oracle = MinCostFlow::new(n);
        let mut fast = McmfGraph::new();
        fast.reset(n);
        for &(u, v, c, w) in edges {
            oracle.add_edge(u, v, c, w);
            fast.add_edge(u, v, c, w);
        }
        let ro = oracle.solve(s, t, target);
        let rf = fast.solve(s, t, target);
        assert_eq!(ro.flow, rf.flow, "flow diverged from oracle");
        assert!(
            (ro.cost - rf.cost).abs() <= 1e-6 * (1.0 + ro.cost.abs()),
            "cost diverged: oracle {} vs optimized {}",
            ro.cost,
            rf.cost
        );
        assert!(fast.verify_optimal(1e-9), "optimized flow not certified");
        rf
    }

    #[test]
    fn mcmf_graph_matches_oracle_on_hand_instances() {
        // Every hand-built MinCostFlow instance above, replayed on both.
        cross_check(2, &[(0, 1, 5, 2.0)], 0, 1, 3);
        cross_check(2, &[(0, 1, 2, 1.0)], 0, 1, 10);
        cross_check(
            3,
            &[(0, 1, 1, 1.0), (0, 2, 5, 1.0), (2, 1, 5, 2.0)],
            0,
            1,
            3,
        );
        cross_check(
            4,
            &[
                (0, 1, 1, 1.0),
                (1, 3, 1, 1.0),
                (0, 2, 1, 2.0),
                (2, 3, 1, 2.0),
                (1, 2, 1, 0.0),
            ],
            0,
            3,
            2,
        );
        cross_check(
            6,
            &[
                (0, 1, 2, 0.0),
                (0, 2, 1, 0.0),
                (1, 3, 9, 1.0),
                (1, 4, 9, 5.0),
                (2, 3, 9, 2.0),
                (2, 4, 9, 1.0),
                (3, 5, 2, 0.0),
                (4, 5, 2, 0.0),
            ],
            0,
            5,
            3,
        );
        cross_check(
            6,
            &[
                (0, 1, 1, 0.0),
                (0, 2, 1, 0.0),
                (1, 3, 1, 1.0),
                (1, 4, 1, 10.0),
                (2, 3, 1, 1.0),
                (2, 4, 1, 2.0),
                (3, 5, 1, 0.0),
                (4, 5, 9, 0.0),
            ],
            0,
            5,
            2,
        );
        cross_check(3, &[(0, 1, 1, 1.0)], 0, 2, 5); // disconnected sink
        cross_check(2, &[(0, 1, 1, 1.0)], 0, 1, 0); // zero target
    }

    #[test]
    fn mcmf_graph_flow_on_reports_routed_units() {
        let mut g = McmfGraph::new();
        g.reset(2);
        let e = g.add_edge(0, 1, 5, 2.0);
        let r = g.solve(0, 1, 3);
        assert_eq!(r, FlowResult { flow: 3, cost: 6.0 });
        assert_eq!(g.flow_on(e), 3);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn mcmf_graph_rejects_negative_costs() {
        let mut g = McmfGraph::new();
        g.reset(2);
        g.add_edge(0, 1, 1, -1.0);
    }

    #[test]
    fn mcmf_graph_reset_reuses_cleanly() {
        // Solve two unrelated instances through the same arena; the
        // second must be unaffected by the first's state.
        let mut g = McmfGraph::new();
        g.reset(4);
        g.add_edge(0, 1, 1, 1.0);
        g.add_edge(1, 3, 1, 1.0);
        g.add_edge(0, 2, 1, 2.0);
        g.add_edge(2, 3, 1, 2.0);
        g.add_edge(1, 2, 1, 0.0);
        let r1 = g.solve(0, 3, 2);
        assert_eq!(r1.flow, 2);
        assert!((r1.cost - 6.0).abs() < 1e-9);

        g.reset(2);
        let e = g.add_edge(0, 1, 5, 2.0);
        let r2 = g.solve(0, 1, 3);
        assert_eq!(r2, FlowResult { flow: 3, cost: 6.0 });
        assert_eq!(g.flow_on(e), 3);
        assert!(g.verify_optimal(1e-9));
    }

    #[test]
    fn mcmf_graph_multiunit_phase_matches_unit_oracle() {
        // A job-shaped instance where whole supplies move per phase: two
        // supplies of 4 and 3 units over six unit slots with increasing
        // costs. The blocking flow pushes multi-unit; the oracle pushes
        // one unit per Dijkstra; values must agree exactly.
        let (s, a, b, t) = (0usize, 1usize, 2usize, 9usize);
        let mut edges = vec![(s, a, 4i64, 0.0f64), (s, b, 3, 0.0)];
        for slot in 0..6 {
            let c = slot as f64;
            edges.push((a, 3 + slot, 1, 1.0 + c));
            edges.push((b, 3 + slot, 1, 2.0 + 0.5 * c));
            edges.push((3 + slot, t, 1, 0.0));
        }
        // Slot capacity 1 forces real contention between a and b.
        cross_check(10, &edges, s, t, 7);
    }

    #[test]
    fn mcmf_graph_random_transportation_matches_oracle() {
        // Bigger random instances than the brute-force test: 4 supplies
        // (1–3 units) × 6 sinks (cap 1–2), random costs, compared
        // against the SSP oracle and certified.
        let mut seed = 0x0123_4567_89AB_CDEF_u64;
        let mut next = move || {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            (seed >> 11) as f64 / (1u64 << 53) as f64
        };
        for _ in 0..40 {
            let supplies: Vec<i64> = (0..4).map(|_| 1 + (next() * 3.0) as i64).collect();
            let caps: Vec<i64> = (0..6).map(|_| 1 + (next() * 2.0) as i64).collect();
            let (s, t) = (0usize, 11usize);
            let mut edges: Vec<(usize, usize, i64, f64)> = Vec::new();
            for (i, &sup) in supplies.iter().enumerate() {
                edges.push((s, 1 + i, sup, 0.0));
                for j in 0..6 {
                    edges.push((1 + i, 5 + j, 2, (next() * 20.0).round() / 2.0));
                }
            }
            for (j, &c) in caps.iter().enumerate() {
                edges.push((5 + j, t, c, 0.0));
            }
            let want: i64 = supplies.iter().sum::<i64>().min(caps.iter().sum());
            let r = cross_check(12, &edges, s, t, supplies.iter().sum());
            assert_eq!(r.flow, want);
        }
    }

    #[test]
    fn mcmf_graph_lp_shaped_instance_certified() {
        // The LP builder's network shape end-to-end on the arena solver.
        use tf_simcore::Trace;
        for pairs in [
            vec![(0.0, 2.0), (0.0, 1.0), (1.0, 3.0)],
            vec![(0.0, 1.0), (2.0, 2.0), (2.0, 2.0), (5.0, 1.0)],
        ] {
            let tr = Trace::from_pairs(pairs).unwrap();
            let n = tr.len();
            let horizon = tr.makespan_upper_bound(1.0).ceil() as usize + 1;
            let (s, sink) = (0usize, 1 + n + horizon);
            let mut g = McmfGraph::new();
            g.reset(sink + 1);
            let mut supply = 0;
            for (ji, j) in tr.jobs().iter().enumerate() {
                let p = j.size.round() as i64;
                supply += p;
                g.add_edge(s, 1 + ji, p, 0.0);
                for slot in (j.arrival as usize)..horizon {
                    let age = slot as f64 - j.arrival;
                    g.add_edge(
                        1 + ji,
                        1 + n + slot,
                        1,
                        (age * age + j.size * j.size) / j.size,
                    );
                }
            }
            for slot in 0..horizon {
                g.add_edge(1 + n + slot, sink, 1, 0.0);
            }
            let r = g.solve(s, sink, supply);
            assert_eq!(r.flow, supply);
            assert!(g.verify_optimal(1e-6), "negative residual cycle left");
        }
    }

    #[test]
    fn dary_heap_pops_in_sorted_order() {
        // Scrambled pushes with interleaved pops must come out in
        // (dist, node) order — the exact contract Dijkstra relies on.
        let mut h = DaryHeap::default();
        let items = [
            (5.0, 2),
            (1.0, 9),
            (3.0, 1),
            (1.0, 3),
            (0.5, 7),
            (3.0, 0),
            (2.5, 4),
        ];
        for &(dist, node) in &items {
            h.push(HeapItem { dist, node });
        }
        let mut got = Vec::new();
        while let Some(it) = h.pop() {
            got.push((it.dist, it.node));
        }
        let mut want = items.to_vec();
        want.sort_by(|a, b| a.partial_cmp(b).unwrap());
        assert_eq!(got, want);
        assert!(h.pop().is_none());
    }

    #[test]
    fn mincostflow_budgeted_matches_unbudgeted_and_trips() {
        let edges = [
            (0usize, 1usize, 2i64, 0.0f64),
            (0, 2, 1, 0.0),
            (1, 3, 9, 1.0),
            (1, 4, 9, 5.0),
            (2, 3, 9, 2.0),
            (2, 4, 9, 1.0),
            (3, 5, 2, 0.0),
            (4, 5, 2, 0.0),
        ];
        let build = || {
            let mut g = MinCostFlow::new(6);
            for &(u, v, c, w) in &edges {
                g.add_edge(u, v, c, w);
            }
            g
        };
        let plain = build().solve(0, 5, 3);
        let unlimited = build()
            .solve_budgeted(0, 5, 3, &SolveBudget::unlimited())
            .unwrap();
        assert_eq!(plain, unlimited);
        let spent = SolveBudget::with_timeout(std::time::Duration::ZERO);
        assert!(build().solve_budgeted(0, 5, 3, &spent).is_none());
    }

    #[test]
    fn random_instances_match_bruteforce() {
        // Exhaustive check on tiny random transportation instances:
        // 2 supplies (1 unit each) × 3 sinks (cap 1): enumerate all
        // assignments and compare.
        let mut seed = 0x9E3779B97F4A7C15u64;
        let mut next = move || {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            (seed >> 11) as f64 / (1u64 << 53) as f64
        };
        for _ in 0..50 {
            let costs: Vec<Vec<f64>> = (0..2)
                .map(|_| (0..3).map(|_| (next() * 10.0).round()).collect())
                .collect();
            // Brute force: pick distinct sinks for the two supplies.
            let mut best = f64::INFINITY;
            for (x, cx) in costs[0].iter().enumerate() {
                for (y, cy) in costs[1].iter().enumerate() {
                    if x != y {
                        best = best.min(cx + cy);
                    }
                }
            }
            let (s, t) = (0usize, 6usize);
            let mut g = MinCostFlow::new(7);
            for (a, row) in costs.iter().enumerate() {
                g.add_edge(s, 1 + a, 1, 0.0);
                for (x, &c) in row.iter().enumerate() {
                    g.add_edge(1 + a, 3 + x, 1, c);
                }
            }
            for x in 0..3 {
                g.add_edge(3 + x, t, 1, 0.0);
            }
            let r = g.solve(s, t, 2);
            assert_eq!(r.flow, 2);
            assert!((r.cost - best).abs() < 1e-9, "{} vs {best}", r.cost);
        }
    }
}
