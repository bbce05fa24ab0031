//! The shortest-path spanning tree (SPST) planner — Algorithm 1 of the
//! paper.
//!
//! Vertices are shuffled and processed one at a time. For each vertex the
//! planner grows a communication tree rooted at the vertex's source GPU:
//! in every iteration a multi-source shortest-path search (over the
//! *layered* state space `(gpu, depth)`, because a link's cost depends on
//! the stage it runs in) finds the cheapest extension from the current
//! tree to an uncovered destination, where an edge's weight is the
//! *incremental* increase in the plan's total cost (Algorithm 2). Edge
//! costs along a path are addable because path edges occupy distinct
//! stages.
//!
//! This greedy construction realises the paper's four goals at once:
//! fast-link preference and multi-hop forwarding (cheap links win the
//! shortest path), fusion (a destination already in the tree forwards to
//! later ones), contention avoidance (shared hops accumulate cost) and
//! load balance (adding to an underloaded link costs zero).
//!
//! # The batched fast path
//!
//! The search above is exact but expensive: every tree extension runs a
//! layered Dijkstra over `O(m²)` states. [`spst_plan_with_config`] layers
//! three optimisations on top of it, none of which change what a tree
//! *is* — only how often the full search runs:
//!
//! 1. **Demand-class reuse.** Vertices with the same `(src, dsts)`
//!    multicast signature (at most `m · 2^(m-1)` classes for `m` GPUs,
//!    in practice a few hundred) want the same tree unless the load
//!    picture shifted. After a full search, the tree and its realised
//!    cost delta are cached per class; the next vertex of the class
//!    re-prices the cached tree with the `O(tree · hops)`
//!    [`CostState::delta_many`] query and commits it directly when (a)
//!    the delta is still within `tolerance` of the cached baseline and
//!    (b) the total plan time has not grown by more than `tolerance`
//!    since the search (stage maxima shifting under committed volume is
//!    exactly what makes a structurally stale tree keep a flat delta).
//!    A rejected re-check falls back to the full search and refreshes
//!    the cache, which is what preserves the greedy load-balancing
//!    property.
//! 2. **Speculative parallel batches.** With `threads > 1`, demands are
//!    planned in batches against a *frozen snapshot* of the cost state by
//!    scoped worker threads, then committed sequentially in demand order.
//!    A speculative tree is accepted if its delta on the live state is
//!    still within `tolerance` of its predicted delta on the snapshot;
//!    otherwise the demand is re-planned live. Workers plan every demand
//!    against the pristine snapshot (they undo their own trial commits
//!    with [`CostState::revert`]), so the result depends only on the
//!    batch boundaries — never on thread scheduling.
//! 3. **Search-state reuse.** The Dijkstra scratch (heap, distance and
//!    parent arrays) lives in an epoch-stamped `SearchScratch`; an
//!    extension resets it by bumping a counter instead of rewriting
//!    `O(m²)` entries, and steady-state planning allocates nothing.
//!
//! Determinism contract: for a fixed `(seed, threads, tolerance,
//! batch_size)` the planner is bit-deterministic, and at `threads = 1,
//! tolerance = 0` it is bit-identical to the exact sequential planner
//! (the reuse tiers are disabled, not merely unlikely to fire).

use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::collections::HashMap;
use std::time::Instant;

use dgcl_partition::PartitionedGraph;
use dgcl_topology::Topology;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use crate::cost::{CostLog, CostState, PriceScratch};
use crate::plan::CommPlan;

/// Result of running the SPST planner.
#[derive(Debug, Clone)]
pub struct SpstOutcome {
    /// The staged communication plan.
    pub plan: CommPlan,
    /// The cost-model state after committing every tree (its
    /// `total_time()` is the model's estimate for the plan).
    pub cost: CostState,
    /// Wall-clock planning time in seconds (Table 8 measures this).
    pub planning_seconds: f64,
    /// How each demand was resolved (full search, cache hit, speculation).
    pub stats: PlannerStats,
}

/// The order in which SPST processes vertices.
///
/// The paper shuffles randomly; the alternatives exist for the ordering
/// ablation (greedy planners are order-sensitive, and shuffling is what
/// spreads consecutive same-source vertices across links for load
/// balance).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VertexOrder {
    /// Random shuffle (the paper's choice).
    Shuffled,
    /// Ascending vertex id: consecutive vertices usually share a source
    /// GPU, stressing the balancer.
    ById,
    /// Descending destination count: widest multicasts planned first,
    /// while links are still empty.
    ByFanoutDesc,
}

/// Configuration of the batched SPST planner.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SpstConfig {
    /// Vertex processing order.
    pub order: VertexOrder,
    /// Worker threads for speculative batch planning. `1` disables
    /// speculation entirely (no snapshots, no batches).
    pub threads: usize,
    /// Relative cost-drift tolerance for committing a cached or
    /// speculative tree without re-searching. `0.0` disables the
    /// demand-class cache and makes speculation accept only bit-exact
    /// predictions, reproducing the exact sequential planner.
    pub tolerance: f64,
    /// Demands per speculative batch; `0` picks `threads * 32`. Part of
    /// the determinism key: different batch sizes may produce different
    /// (equally valid) plans.
    pub batch_size: usize,
    /// Maximum communication-tree depth the fast path searches (`0` =
    /// exact, up to `gpus - 1`). Exact plans put only a few percent of
    /// their volume below depth 4 on an 8-GPU machine, but the layered
    /// search wastes most of its time flooding those deep, zero-delta
    /// plateaus; capping the depth is the single biggest search speedup.
    /// Exact trees grow deeper with the machine, so the planner widens
    /// the cap to `3 * gpus / 8` layers on larger topologies (6 at 16
    /// GPUs — depth 4 there costs ~10% plan quality on dense graphs).
    /// Ignored when `tolerance == 0` so the exact configuration stays
    /// bit-identical to the seed planner.
    pub depth_cap: usize,
}

impl Default for SpstConfig {
    /// The exact planner: sequential, zero tolerance.
    fn default() -> Self {
        Self {
            order: VertexOrder::Shuffled,
            threads: 1,
            tolerance: 0.0,
            batch_size: 0,
            depth_cap: 0,
        }
    }
}

impl SpstConfig {
    /// The batched fast path at its defaults: `threads` workers, 5%
    /// drift tolerance, automatic batch size.
    pub fn batched(threads: usize) -> Self {
        Self {
            order: VertexOrder::Shuffled,
            threads: threads.max(1),
            tolerance: 0.05,
            batch_size: 0,
            depth_cap: 4,
        }
    }
}

/// Counters describing how the planner resolved each demand. The three
/// commit counters partition the demand set:
/// `full_searches + cache_commits + speculative_commits == demands`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PlannerStats {
    /// Total multicast demands planned.
    pub demands: usize,
    /// Distinct `(src, dsts)` demand signatures (the reuse cache's
    /// capacity; populated even when `tolerance == 0` keeps it unused).
    pub classes: usize,
    /// Demands resolved by a full layered search (includes `replans`).
    pub full_searches: usize,
    /// Demands committed straight from the demand-class cache.
    pub cache_commits: usize,
    /// Demands committed from a speculative batch-planned tree.
    pub speculative_commits: usize,
    /// Speculative trees rejected at commit time and re-planned live
    /// (a subset of `full_searches`).
    pub replans: usize,
    /// Cache lookups that found an entry but skipped it because the plan
    /// total grew past tolerance since the entry's search.
    pub cache_stale: usize,
    /// Cache lookups whose re-priced tree delta drifted past tolerance.
    pub cache_rejected: usize,
    /// Speculative batches executed (0 for the sequential planner).
    pub batches: usize,
}

/// One directed edge of a communication tree: GPU `src` forwards to GPU
/// `dst` at `stage`. Trees are stored per demand *class*, so edges carry
/// no vertex id.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TreeEdge {
    /// Sending GPU rank.
    pub src: u32,
    /// Receiving GPU rank.
    pub dst: u32,
    /// Stage (tree depth of the edge).
    pub stage: u32,
}

/// Tie-break factor: a vanishing fraction of the uncontended transfer time
/// is added to every edge so that zero-delta choices (underloaded links)
/// still prefer faster, more direct links.
const TIE_EPSILON: f64 = 1e-6;

/// Absolute slack on commit-time delta re-checks, absorbing the
/// accumulation-order float noise between `delta_many` and a sequence of
/// `add`s.
const COMMIT_SLACK: f64 = 1e-12;

/// Per-ordered-GPU-pair search constants, resolved once per planner run:
/// the route's directed hop slots (for [`CostState::delta_slots`]) and
/// the tie-break term pre-scaled by the payload size. The layered search
/// relaxes `O(m)` edges per pop; reading a flat slot slice instead of
/// chasing `Route`/`Hop` pointers is where most of the sequential
/// speedup over the seed planner comes from.
struct PairTable {
    m: usize,
    /// `slots[slot_off[i*m+j] .. slot_off[i*m+j+1]]` are pair `(i, j)`'s
    /// directed hop slots.
    slot_off: Vec<u32>,
    slots: Vec<usize>,
    /// `TIE_EPSILON / bottleneck_bandwidth * bytes`: the tie-break factor
    /// with the payload multiply hoisted out of the relax loop (same
    /// operations in the same order, performed once per pair).
    tie_bytes: Vec<f64>,
}

impl PairTable {
    fn new(topology: &Topology, bytes: u64) -> Self {
        let m = topology.num_gpus();
        let mut slot_off = Vec::with_capacity(m * m + 1);
        let mut slots = Vec::new();
        let mut tie_bytes = Vec::with_capacity(m * m);
        slot_off.push(0u32);
        for i in 0..m {
            for j in 0..m {
                if i == j {
                    tie_bytes.push(0.0);
                } else {
                    let route = topology.route(i, j);
                    slots.extend(CostState::route_slots(route));
                    tie_bytes.push(TIE_EPSILON / (route.bottleneck_gbps * 1e9) * bytes as f64);
                }
                slot_off.push(slots.len() as u32);
            }
        }
        Self {
            m,
            slot_off,
            slots,
            tie_bytes,
        }
    }

    #[inline]
    fn slots(&self, i: usize, j: usize) -> &[usize] {
        let p = i * self.m + j;
        &self.slots[self.slot_off[p] as usize..self.slot_off[p + 1] as usize]
    }

    #[inline]
    fn tie_bytes(&self, i: usize, j: usize) -> f64 {
        self.tie_bytes[i * self.m + j]
    }
}

#[derive(PartialEq)]
struct HeapEntry {
    dist: f64,
    gpu: usize,
    depth: usize,
}

impl Eq for HeapEntry {}

impl Ord for HeapEntry {
    fn cmp(&self, other: &Self) -> Ordering {
        // Min-heap on distance.
        other
            .dist
            .partial_cmp(&self.dist)
            .unwrap_or(Ordering::Equal)
            .then_with(|| other.depth.cmp(&self.depth))
            .then_with(|| other.gpu.cmp(&self.gpu))
    }
}

impl PartialOrd for HeapEntry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// Reusable layered-Dijkstra state, epoch-stamped so that starting a new
/// search is `O(1)` (bump `epoch`) instead of `O(m · stages)` (rewrite
/// every distance). An entry is live only when its stamp matches the
/// current epoch; stale entries read as `∞` / no-parent, exactly as if
/// freshly cleared.
struct SearchScratch {
    m: usize,
    max_stages: usize,
    epoch: u64,
    /// Stamp per `(gpu, depth)` state; `dist`/`parent` are valid iff the
    /// stamp equals the current epoch.
    stamp: Vec<u64>,
    dist: Vec<f64>,
    parent: Vec<Option<(usize, usize)>>,
    heap: BinaryHeap<HeapEntry>,
    /// Depth of each GPU in the tree under construction, `None` if absent.
    member_depth: Vec<Option<usize>>,
    /// Destinations not yet covered by the tree.
    remaining: Vec<bool>,
    path: Vec<(usize, usize)>,
    /// The last planned (or committed) tree.
    tree: Vec<TreeEdge>,
    /// Allocation-free scratch for whole-tree pricing re-checks.
    price: PriceScratch,
}

impl SearchScratch {
    fn new(m: usize, max_stages: usize, cost: &CostState) -> Self {
        // States span depths 0..=max_stages (edges occupy stages
        // 0..max_stages, children reach depth max_stages).
        let n = m * (max_stages + 1);
        Self {
            m,
            max_stages,
            epoch: 0,
            stamp: vec![0; n],
            dist: vec![f64::INFINITY; n],
            parent: vec![None; n],
            heap: BinaryHeap::new(),
            member_depth: vec![None; m],
            remaining: vec![false; m],
            path: Vec::new(),
            tree: Vec::new(),
            price: cost.price_scratch(),
        }
    }
}

/// One fully-searched tree for a demand class: the cost delta it
/// realised at search time and the total plan time at that moment.
/// Neither baseline is refreshed on cache commits: drift is always
/// measured against the real search, so a long run of hits cannot
/// ratchet the tolerance window upward.
struct CachedTree {
    edges: Vec<TreeEdge>,
    baseline: f64,
    /// `CostState::total_time` when the tree was searched. A reused tree
    /// whose own delta is flat can still go stale — in the linear regime,
    /// piling onto the same stage costs a constant delta per commit while
    /// a full search would stagger stages and hide cheap links under the
    /// expensive ones. Total-time growth is the cheap global witness of
    /// that shift, so entries expire once the plan grew by `tolerance`.
    total_at_search: f64,
}

/// How many recent trees the cache keeps per demand class.
///
/// The exact planner water-fills: consecutive same-signature vertices
/// alternate between a handful of tree shapes so that no single path
/// absorbs all the volume. A single cached tree cannot express that (its
/// hops fill up and every re-check rejects); a short rotation of the
/// last few searched trees can — the commit picks whichever cached tree
/// is cheapest on the *live* state, reproducing the alternation at
/// `O(CLASS_TREES · tree)` cost instead of a full search.
const CLASS_TREES: usize = 4;

/// Headroom factor for the speculative tier's zero-delta bypass: a
/// batch-planned tree whose snapshot aged past the freshness window may
/// still commit if it realises a zero delta carrying `ZERO_HEADROOM`
/// times its payload. Plain zero-delta is step-optimal but can fill hops
/// to the brim of their stage maxima, silently constraining every later
/// demand; requiring headroom stops the bypass before the brim. The
/// demand-class cache deliberately has no such bypass — its entries age
/// without bound, and repeated zero-delta commits of an old tree pile
/// volume onto hops a fresh search would rebalance away from (measured:
/// 6-13% plan-cost inflation on dense 4-GPU configs). The speculative
/// tree's staleness is capped by one batch window, which keeps the
/// compounding second-order.
const ZERO_HEADROOM: u64 = 4;

/// Fraction of the tolerance reserved as the *global* drift budget: reuse
/// commits may spend at most `DRIFT_BUDGET * tolerance * total_time` of
/// cumulative excess (live delta over search baseline) across the whole
/// run. The per-commit checks bound each step; this bounds their sum, so
/// many individually-in-tolerance commits cannot compound past the
/// planner's cost guarantee.
const DRIFT_BUDGET: f64 = 0.5;

/// The reuse cache entry for one demand class: up to [`CLASS_TREES`]
/// recently searched trees, newest last.
#[derive(Default)]
struct CachedClass {
    trees: Vec<CachedTree>,
}

impl CachedClass {
    fn push(&mut self, tree: CachedTree) {
        // Re-searching often rediscovers a shape already in the rotation
        // (always, on tiny topologies); refresh that entry's baseline in
        // place instead of storing a duplicate the commit path would
        // price twice.
        if let Some(existing) = self.trees.iter_mut().find(|t| t.edges == tree.edges) {
            existing.baseline = tree.baseline;
            existing.total_at_search = tree.total_at_search;
            return;
        }
        if self.trees.len() == CLASS_TREES {
            self.trees.remove(0);
        }
        self.trees.push(tree);
    }
}

/// Grows one communication tree with the exact layered search, committing
/// each chosen edge into `cost` via [`CostState::add_logged`] (so callers
/// can either keep the commit, clearing `log`, or undo it with
/// [`CostState::revert`]). Leaves the tree in `scratch.tree` and returns
/// the realised total cost delta.
#[allow(clippy::too_many_arguments)]
fn plan_tree(
    topology: &Topology,
    cost: &mut CostState,
    log: &mut CostLog,
    scratch: &mut SearchScratch,
    pairs: &PairTable,
    src: usize,
    dsts: &[u32],
    bytes_per_vertex: u64,
) -> f64 {
    let SearchScratch {
        m,
        max_stages,
        epoch,
        stamp,
        dist,
        parent,
        heap,
        member_depth,
        remaining,
        path,
        tree,
        price: _,
    } = scratch;
    let (m, max_stages) = (*m, *max_stages);
    let state = |gpu: usize, depth: usize| depth * m + gpu;

    tree.clear();
    member_depth.iter_mut().for_each(|d| *d = None);
    member_depth[src] = Some(0);
    remaining.iter_mut().for_each(|r| *r = false);
    let mut remaining_count = 0usize;
    for &d in dsts {
        if !remaining[d as usize] {
            remaining[d as usize] = true;
            remaining_count += 1;
        }
    }

    let mut realised = 0.0;
    while remaining_count > 0 {
        // Multi-source layered Dijkstra from every tree member at its
        // depth.
        *epoch += 1;
        let ep = *epoch;
        heap.clear();
        for (g, md) in member_depth.iter().enumerate() {
            if let Some(d) = md {
                let s = state(g, *d);
                stamp[s] = ep;
                dist[s] = 0.0;
                parent[s] = None;
                heap.push(HeapEntry {
                    dist: 0.0,
                    gpu: g,
                    depth: *d,
                });
            }
        }
        let mut best_target: Option<(f64, usize, usize)> = None;
        while let Some(HeapEntry {
            dist: d,
            gpu,
            depth,
        }) = heap.pop()
        {
            let s = state(gpu, depth);
            if stamp[s] != ep || d > dist[s] {
                continue;
            }
            if let Some((bd, _, _)) = best_target {
                if d >= bd {
                    break;
                }
            }
            if remaining[gpu] && member_depth[gpu].is_none() {
                match best_target {
                    Some((bd, _, _)) if bd <= d => {}
                    _ => best_target = Some((d, gpu, depth)),
                }
                // Other remaining targets might still be cheaper; keep
                // searching until popped distances exceed the best.
                continue;
            }
            if depth >= max_stages {
                continue;
            }
            for (next, in_tree) in member_depth.iter().enumerate() {
                if next == gpu || in_tree.is_some() {
                    continue;
                }
                // Cost deltas are non-negative, so `d + tie` lower-bounds
                // the candidate distance (float addition is monotone in
                // one operand). When the bound already fails the strict
                // improvement test — against the state's current distance
                // or the best target found — the full delta query cannot
                // change anything; skipping it is exact, and most relax
                // attempts in a converged region die here.
                let lb = d + pairs.tie_bytes(gpu, next);
                let sn = state(next, depth + 1);
                let cur = if stamp[sn] == ep {
                    dist[sn]
                } else {
                    f64::INFINITY
                };
                if lb >= cur {
                    continue;
                }
                if let Some((bd, _, _)) = best_target {
                    if lb >= bd {
                        continue;
                    }
                }
                let w = cost.delta_slots(depth, pairs.slots(gpu, next), bytes_per_vertex)
                    + pairs.tie_bytes(gpu, next);
                let nd = d + w;
                if nd < cur {
                    stamp[sn] = ep;
                    dist[sn] = nd;
                    parent[sn] = Some((gpu, depth));
                    heap.push(HeapEntry {
                        dist: nd,
                        gpu: next,
                        depth: depth + 1,
                    });
                }
            }
        }
        let (_, target_gpu, target_depth) =
            best_target.expect("every destination is reachable on a connected topology");
        // Trace the path back to the tree and commit it. Every state on
        // the path was written this epoch, so direct reads are safe.
        path.clear();
        let mut cur = (target_gpu, target_depth);
        loop {
            path.push(cur);
            match parent[state(cur.0, cur.1)] {
                Some(p) => cur = p,
                None => break,
            }
        }
        path.reverse();
        // The layered search may route through the same GPU at two
        // different depths: a detour that parks the payload until a
        // later, emptier stage is the model's only way to express
        // "wait here". That is a walk, not a tree — the forward
        // executor tolerates the duplicate delivery (the same row is
        // written twice), but the reversed scatter folds the revisited
        // GPU's accumulator into the chain at both visits and
        // double-counts every gradient behind it. Contract each cycle
        // (keep the first visit, drop the loop) but keep every node's
        // searched depth: each surviving edge is committed at the
        // stage the search priced it (`child depth - 1`), so the
        // contracted tree costs exactly what the search modelled minus
        // the dropped loop edges. A GPU delivered at stage `d` simply
        // holds the rows and forwards them at a later stage.
        let mut kept = 0usize;
        for r in 0..path.len() {
            let g = path[r].0;
            if let Some(first) = path[..kept].iter().position(|&(pg, _)| pg == g) {
                kept = first + 1;
            } else {
                path[kept] = path[r];
                kept += 1;
            }
        }
        path.truncate(kept);
        for pair in path.windows(2) {
            let (parent_gpu, _parent_depth) = pair[0];
            let (child_gpu, child_depth) = pair[1];
            let stage = child_depth - 1;
            realised += cost.add_logged(
                stage,
                topology.route(parent_gpu, child_gpu),
                bytes_per_vertex,
                log,
            );
            tree.push(TreeEdge {
                src: parent_gpu as u32,
                dst: child_gpu as u32,
                stage: stage as u32,
            });
        }
        for &(g, d) in path.iter() {
            if member_depth[g].is_none() {
                member_depth[g] = Some(d);
                if remaining[g] {
                    remaining[g] = false;
                    remaining_count -= 1;
                }
            }
        }
    }
    realised
}

/// Commits `tree` into `cost` and returns the realised delta.
fn commit_tree(cost: &mut CostState, topology: &Topology, tree: &[TreeEdge], bytes: u64) -> f64 {
    let mut delta = 0.0;
    for e in tree {
        delta += cost.add(
            e.stage as usize,
            topology.route(e.src as usize, e.dst as usize),
            bytes,
        );
    }
    delta
}

/// Prices `tree` on the live `cost` state without committing it.
fn price_tree(
    cost: &CostState,
    pairs: &PairTable,
    tree: &[TreeEdge],
    bytes: u64,
    price: &mut PriceScratch,
) -> f64 {
    cost.delta_many_slots(
        tree.iter().map(|e| {
            (
                e.stage as usize,
                pairs.slots(e.src as usize, e.dst as usize),
                bytes,
            )
        }),
        price,
    )
}

/// Resolves one demand through the tiered fast path, leaving the
/// committed tree in `scratch.tree`:
///
/// 1. cached class tree, if its live delta is within tolerance of the
///    cache baseline;
/// 2. the speculative batch-planned tree, if its live delta is within
///    tolerance of its snapshot prediction;
/// 3. a full layered search (which refreshes the class cache).
#[allow(clippy::too_many_arguments)]
fn commit_demand(
    topology: &Topology,
    cost: &mut CostState,
    log: &mut CostLog,
    scratch: &mut SearchScratch,
    pairs: &PairTable,
    cache: &mut [CachedClass],
    stats: &mut PlannerStats,
    drift_spent: &mut f64,
    tolerance: f64,
    class_id: usize,
    src: u32,
    dsts: &[u32],
    bytes: u64,
    speculative: Option<(&[TreeEdge], f64, f64)>,
) {
    let use_cache = tolerance > 0.0;
    let total_now = cost.total_time();
    let budget = DRIFT_BUDGET * tolerance * total_now;
    if use_cache {
        let class = &cache[class_id];
        // Re-price every fresh cached tree on the live state and take the
        // cheapest — rotating among recent shapes is what reproduces the
        // exact planner's water-filling alternation. Each candidate's
        // bound is a relative drift check on its own baseline, plus an
        // absolute allowance proportional to how much the plan grew since
        // its search: a tree searched on underloaded links has a
        // near-zero baseline, and a purely relative bound would reject it
        // forever once any volume lands on its hops. The freshness gate
        // caps `growth` at `tolerance * total`, keeping the allowance
        // second-order.
        let mut best: Option<(usize, f64, f64)> = None;
        let mut any_fresh = false;
        for (i, cached) in class.trees.iter().enumerate() {
            let growth = total_now - cached.total_at_search;
            let is_fresh = growth <= cached.total_at_search * tolerance + COMMIT_SLACK;
            let (delta_now, excess) = if is_fresh {
                any_fresh = true;
                let delta_now = price_tree(cost, pairs, &cached.edges, bytes, &mut scratch.price);
                let excess = (delta_now - cached.baseline).max(0.0);
                let allowed =
                    cached.baseline * (1.0 + tolerance) + tolerance * growth + COMMIT_SLACK;
                if delta_now > allowed || *drift_spent + excess > budget + COMMIT_SLACK {
                    continue;
                }
                (delta_now, excess)
            } else {
                // Stale entry: drop it. Committing an aged tree — even at
                // a zero live delta with headroom — is step-optimal but
                // compounds: volume piles onto hops a fresh search would
                // have rebalanced away from, and no per-commit check sees
                // that (measured: a zero-delta bypass here inflates dense
                // 4-GPU plans 6-13% past the sequential cost across
                // seeds). Only the time-bounded speculative tier keeps a
                // bypass; staleness there is capped by one batch window.
                continue;
            };
            if best.is_none_or(|(_, d, _)| delta_now < d) {
                best = Some((i, delta_now, excess));
                if delta_now <= COMMIT_SLACK {
                    // Nothing can price below zero; skip the remaining
                    // candidates.
                    break;
                }
            }
        }
        if let Some((i, _, excess)) = best {
            scratch.tree.clear();
            scratch
                .tree
                .extend_from_slice(&cache[class_id].trees[i].edges);
            commit_tree(cost, topology, &scratch.tree, bytes);
            *drift_spent += excess;
            stats.cache_commits += 1;
            return;
        }
        if any_fresh {
            stats.cache_rejected += 1;
        } else if !cache[class_id].trees.is_empty() {
            stats.cache_stale += 1;
        }
    }
    if let Some((spec_tree, predicted, snapshot_total)) = speculative {
        let growth = total_now - snapshot_total;
        let fresh = growth <= snapshot_total * tolerance + COMMIT_SLACK;
        let accepted = if fresh {
            let delta_now = price_tree(cost, pairs, spec_tree, bytes, &mut scratch.price);
            let excess = (delta_now - predicted).max(0.0);
            (delta_now <= predicted * (1.0 + tolerance) + tolerance * growth + COMMIT_SLACK
                && *drift_spent + excess <= budget + COMMIT_SLACK)
                .then_some(excess)
        } else {
            // Zero-delta headroom bypass: the snapshot aged past the
            // freshness window within this batch, but a tree that still
            // prices to zero carrying `1 + ZERO_HEADROOM` times its
            // payload rides under the stage maxima with room to spare;
            // deltas are monotone in bytes, so the one scaled pricing
            // also certifies a zero delta at the payload itself.
            (price_tree(
                cost,
                pairs,
                spec_tree,
                bytes * (1 + ZERO_HEADROOM),
                &mut scratch.price,
            ) <= COMMIT_SLACK)
                .then_some(0.0)
        };
        if let Some(excess) = accepted {
            scratch.tree.clear();
            scratch.tree.extend_from_slice(spec_tree);
            commit_tree(cost, topology, &scratch.tree, bytes);
            *drift_spent += excess;
            stats.speculative_commits += 1;
            if use_cache {
                // The speculative tree came from a full search against the
                // batch snapshot, so its prediction is a search baseline.
                cache[class_id].push(CachedTree {
                    edges: spec_tree.to_vec(),
                    baseline: predicted,
                    total_at_search: snapshot_total,
                });
            }
            return;
        }
        // Committed volume drifted past tolerance while this batch was in
        // flight; plan the demand against the live state instead.
        stats.replans += 1;
    }
    let realised = plan_tree(
        topology,
        cost,
        log,
        scratch,
        pairs,
        src as usize,
        dsts,
        bytes,
    );
    log.clear(); // keep the commit
    stats.full_searches += 1;
    if use_cache {
        cache[class_id].push(CachedTree {
            edges: scratch.tree.clone(),
            baseline: realised,
            total_at_search: total_now,
        });
    }
}

/// Runs SPST over every multicast demand of `pg` on `topology`.
///
/// `bytes_per_vertex` is the embedding payload (4 bytes times the feature
/// dimension); the optimal plan is invariant to it (§5.1), but the cost
/// estimate scales with it.
///
/// This is the exact sequential planner
/// ([`SpstConfig::default`]); use [`spst_plan_with_config`] for the
/// batched parallel fast path.
///
/// # Panics
///
/// Panics if the partitioned graph and topology disagree on the GPU
/// count.
pub fn spst_plan(
    pg: &PartitionedGraph,
    topology: &Topology,
    bytes_per_vertex: u64,
    seed: u64,
) -> SpstOutcome {
    spst_plan_with_order(pg, topology, bytes_per_vertex, seed, VertexOrder::Shuffled)
}

/// [`spst_plan`] with an explicit vertex processing order (ablation).
///
/// # Panics
///
/// Panics if the partitioned graph and topology disagree on the GPU
/// count.
pub fn spst_plan_with_order(
    pg: &PartitionedGraph,
    topology: &Topology,
    bytes_per_vertex: u64,
    seed: u64,
    order: VertexOrder,
) -> SpstOutcome {
    spst_plan_with_config(
        pg,
        topology,
        bytes_per_vertex,
        seed,
        SpstConfig {
            order,
            ..SpstConfig::default()
        },
    )
}

/// Runs the batched SPST planner (see the module docs for the tiered
/// fast path and the determinism contract).
///
/// # Panics
///
/// Panics if the partitioned graph and topology disagree on the GPU
/// count, or if `tolerance` is negative or not finite.
pub fn spst_plan_with_config(
    pg: &PartitionedGraph,
    topology: &Topology,
    bytes_per_vertex: u64,
    seed: u64,
    config: SpstConfig,
) -> SpstOutcome {
    assert_eq!(
        pg.num_parts,
        topology.num_gpus(),
        "partition has {} parts but topology has {} GPUs",
        pg.num_parts,
        topology.num_gpus()
    );
    assert!(
        config.tolerance >= 0.0 && config.tolerance.is_finite(),
        "tolerance {} must be finite and non-negative",
        config.tolerance
    );
    let start = Instant::now();
    let m = topology.num_gpus();
    let max_stages = (m.saturating_sub(1)).max(1);
    let mut cost = CostState::new(topology, max_stages);
    let mut demands = pg.multicast_demands();
    match config.order {
        VertexOrder::Shuffled => {
            let mut rng = StdRng::seed_from_u64(seed);
            demands.shuffle(&mut rng);
        }
        VertexOrder::ById => {}
        VertexOrder::ByFanoutDesc => {
            demands.sort_by_key(|(v, _, dsts)| (std::cmp::Reverse(dsts.len()), *v));
        }
    }

    // Per-pair hop slots and pre-scaled tie-break terms, shared read-only
    // with the speculative workers.
    let pairs = PairTable::new(topology, bytes_per_vertex);

    // Resolve every demand's `(src, dsts)` signature to a dense class id
    // once, so the per-demand fast path indexes a vector instead of
    // hashing (and cloning) the signature.
    let mut class_index: HashMap<(u32, &[u32]), usize> = HashMap::new();
    let mut class_ids: Vec<usize> = Vec::with_capacity(demands.len());
    for (_, src, dsts) in &demands {
        let next = class_index.len();
        let id = *class_index.entry((*src, dsts.as_slice())).or_insert(next);
        class_ids.push(id);
    }
    let num_classes = class_index.len();
    drop(class_index);

    let mut stats = PlannerStats {
        demands: demands.len(),
        classes: num_classes,
        ..PlannerStats::default()
    };
    let mut edges: Vec<(dgcl_graph::VertexId, usize, usize, usize)> = Vec::new();
    // The capped search depth applies only to the approximate fast path;
    // the exact configuration keeps the full `m - 1` layers.
    let search_depth = if config.tolerance > 0.0 && config.depth_cap > 0 {
        // Widen with the machine: exact trees reach deeper on larger
        // topologies (depth 4 loses ~10% plan quality at 16 GPUs).
        config.depth_cap.max(3 * m / 8).clamp(1, max_stages)
    } else {
        max_stages
    };
    let mut scratch = SearchScratch::new(m, search_depth, &cost);
    let mut log = CostLog::new();
    // Cumulative reuse drift spent against the global budget.
    let mut drift_spent = 0.0f64;
    // The cache is only ever indexed when `tolerance > 0`; leave it empty
    // (rather than `num_classes` slots of dead weight) otherwise.
    let mut cache: Vec<CachedClass> = Vec::new();
    if config.tolerance > 0.0 {
        cache.resize_with(num_classes, CachedClass::default);
    }
    let threads = config.threads.max(1);

    if threads == 1 {
        for (i, (vertex, src, dsts)) in demands.iter().enumerate() {
            commit_demand(
                topology,
                &mut cost,
                &mut log,
                &mut scratch,
                &pairs,
                &mut cache,
                &mut stats,
                &mut drift_spent,
                config.tolerance,
                class_ids[i],
                *src,
                dsts,
                bytes_per_vertex,
                None,
            );
            for e in &scratch.tree {
                edges.push((*vertex, e.src as usize, e.dst as usize, e.stage as usize));
            }
        }
    } else {
        let batch_size = if config.batch_size == 0 {
            threads * 32
        } else {
            config.batch_size
        }
        .max(1);
        let mut idx = 0usize;
        while idx < demands.len() {
            let batch_start = idx;
            let batch = &demands[idx..(idx + batch_size).min(demands.len())];
            idx += batch.len();
            stats.batches += 1;
            // Speculate against a frozen snapshot of the cost state.
            // Chunks are contiguous, so flattening the per-chunk results
            // restores demand order regardless of thread scheduling.
            let chunk = batch.len().div_ceil(threads);
            let snapshot_total = cost.total_time();
            let snapshot = &cost;
            let (topology_ref, pairs_ref) = (topology, &pairs);
            let speculative: Vec<(Vec<TreeEdge>, f64)> = crossbeam::thread::scope(|scope| {
                let handles: Vec<_> = batch
                    .chunks(chunk)
                    .map(|part| {
                        scope.spawn(move |_| {
                            let mut local = snapshot.clone();
                            let mut local_log = CostLog::new();
                            let mut local_scratch = SearchScratch::new(m, search_depth, &local);
                            part.iter()
                                .map(|(_, src, dsts)| {
                                    let predicted = plan_tree(
                                        topology_ref,
                                        &mut local,
                                        &mut local_log,
                                        &mut local_scratch,
                                        pairs_ref,
                                        *src as usize,
                                        dsts,
                                        bytes_per_vertex,
                                    );
                                    // Undo the trial commit: every demand in
                                    // the batch is priced against the same
                                    // pristine snapshot.
                                    local.revert(&mut local_log);
                                    (local_scratch.tree.clone(), predicted)
                                })
                                .collect::<Vec<_>>()
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .flat_map(|h| h.join().expect("speculative planner worker"))
                    .collect()
            })
            .expect("speculative planner scope");
            // Commit sequentially in demand order.
            for (j, ((vertex, src, dsts), (spec_tree, predicted))) in
                batch.iter().zip(&speculative).enumerate()
            {
                commit_demand(
                    topology,
                    &mut cost,
                    &mut log,
                    &mut scratch,
                    &pairs,
                    &mut cache,
                    &mut stats,
                    &mut drift_spent,
                    config.tolerance,
                    class_ids[batch_start + j],
                    *src,
                    dsts,
                    bytes_per_vertex,
                    Some((spec_tree, *predicted, snapshot_total)),
                );
                for e in &scratch.tree {
                    edges.push((*vertex, e.src as usize, e.dst as usize, e.stage as usize));
                }
            }
        }
    }
    let plan = CommPlan::from_edges(m, edges);
    SpstOutcome {
        plan,
        cost,
        planning_seconds: start.elapsed().as_secs_f64(),
        stats,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::baselines::peer_to_peer;
    use crate::plan::validate_plan;
    use dgcl_graph::{Dataset, GraphBuilder};
    use dgcl_partition::multilevel::kway;
    use dgcl_partition::PartitionedGraph;

    /// Builds a 4-part graph whose communication relation contains
    /// `num_hubs` multicast demands from part `owner` to `dsts`. All hubs
    /// share one private neighbour per destination part, so the reverse
    /// (private -> owner) traffic stays small and does not mask the
    /// forward planning decisions under the stage max.
    fn fig6_demand(owner: u32, dsts: &[u32], num_hubs: usize) -> PartitionedGraph {
        let k = 4;
        let n = num_hubs + dsts.len();
        let mut b = GraphBuilder::new(n);
        let mut partition = vec![owner; n];
        for (i, &d) in dsts.iter().enumerate() {
            partition[num_hubs + i] = d;
        }
        for hub in 0..num_hubs as u32 {
            for i in 0..dsts.len() as u32 {
                b.add_edge(hub, num_hubs as u32 + i);
            }
        }
        PartitionedGraph::new(&b.build_symmetric(), partition, k)
    }

    #[test]
    fn single_demand_uses_direct_nvlink() {
        let pg = fig6_demand(0, &[1], 1);
        let topo = dgcl_topology::Topology::fig6();
        let out = spst_plan(&pg, &topo, 1024, 1);
        assert!(validate_plan(&out.plan, &pg).is_ok());
        // One demanded vertex each way over the direct NVLink: a single
        // stage, no forwarding.
        assert_eq!(out.plan.num_stages, 1);
    }

    #[test]
    fn multicast_fuses_through_forwarding() {
        // Four hub vertices on d0 must reach both d2 and d3. Crossing the
        // QPI once per hub and forwarding over the d2-d3 NVLink is cheaper
        // than crossing the QPI twice per hub; the reverse traffic (one
        // shared private vertex per destination) is too small to hide
        // that.
        let pg = fig6_demand(0, &[2, 3], 4);
        let topo = dgcl_topology::Topology::fig6();
        let out = spst_plan(&pg, &topo, 1 << 20, 3);
        assert!(validate_plan(&out.plan, &pg).is_ok());
        for hub in 0..4u32 {
            let hub_steps: Vec<_> = out
                .plan
                .steps
                .iter()
                .filter(|s| s.vertices.contains(&hub))
                .collect();
            let qpi_crossings = hub_steps
                .iter()
                .filter(|s| {
                    let route = topo.route(s.src, s.dst);
                    route
                        .hops
                        .iter()
                        .any(|h| topo.conn(h.conn).kind == dgcl_topology::LinkKind::Qpi)
                })
                .count();
            assert_eq!(qpi_crossings, 1, "hub {hub} plan: {hub_steps:?}");
            let reached: std::collections::HashSet<usize> =
                hub_steps.iter().map(|s| s.dst).collect();
            assert!(reached.contains(&2) && reached.contains(&3));
        }
    }

    #[test]
    fn spst_never_costs_more_than_peer_to_peer_model() {
        // The greedy planner always has the peer-to-peer tree available,
        // so its modelled cost should not exceed peer-to-peer's by more
        // than the greedy ordering noise; check a clear-cut case.
        let pg = fig6_demand(0, &[2, 3], 8);
        let topo = dgcl_topology::Topology::fig6();
        let bytes = 1 << 18;
        let spst = spst_plan(&pg, &topo, bytes, 1);
        let p2p = peer_to_peer(&pg).estimated_time(&topo, bytes);
        assert!(spst.cost.total_time() <= p2p + 1e-12);
    }

    #[test]
    fn spst_beats_peer_to_peer_on_contended_topology() {
        let graph = Dataset::WebGoogle.generate(0.002, 5);
        let topo = dgcl_topology::Topology::dgx1();
        let parts = kway(&graph, 8, 5);
        let pg = PartitionedGraph::new(&graph, parts, 8);
        let bytes = 4 * 256;
        let spst = spst_plan(&pg, &topo, bytes, 5);
        let p2p = peer_to_peer(&pg);
        let t_spst = spst.cost.total_time();
        let t_p2p = p2p.estimated_time(&topo, bytes);
        assert!(validate_plan(&spst.plan, &pg).is_ok());
        assert!(
            t_spst < t_p2p,
            "SPST {t_spst} not better than peer-to-peer {t_p2p}"
        );
    }

    #[test]
    fn plan_is_deterministic_per_seed() {
        let graph = Dataset::WikiTalk.generate(0.001, 2);
        let topo = dgcl_topology::Topology::fig6();
        let parts = kway(&graph, 4, 2);
        let pg = PartitionedGraph::new(&graph, parts, 4);
        let a = spst_plan(&pg, &topo, 128, 9);
        let b = spst_plan(&pg, &topo, 128, 9);
        assert_eq!(a.plan.steps, b.plan.steps);
    }

    #[test]
    fn plan_invariant_to_feature_dimension() {
        // §5.1: the optimal plan is irrelevant to the embedding width; our
        // greedy planner preserves that property because all costs scale
        // linearly.
        let graph = Dataset::WebGoogle.generate(0.001, 4);
        let topo = dgcl_topology::Topology::dgx1();
        let parts = kway(&graph, 8, 4);
        let pg = PartitionedGraph::new(&graph, parts, 8);
        let small = spst_plan(&pg, &topo, 4, 11);
        let large = spst_plan(&pg, &topo, 4096, 11);
        assert_eq!(small.plan.steps, large.plan.steps);
    }

    #[test]
    fn all_vertex_orders_produce_valid_plans() {
        use crate::spst::{spst_plan_with_order, VertexOrder};
        let graph = Dataset::WebGoogle.generate(0.001, 6);
        let topo = dgcl_topology::Topology::dgx1();
        let parts = kway(&graph, 8, 6);
        let pg = PartitionedGraph::new(&graph, parts, 8);
        for order in [
            VertexOrder::Shuffled,
            VertexOrder::ById,
            VertexOrder::ByFanoutDesc,
        ] {
            let out = spst_plan_with_order(&pg, &topo, 1024, 6, order);
            assert!(
                validate_plan(&out.plan, &pg).is_ok(),
                "{order:?} produced an invalid plan"
            );
        }
    }

    #[test]
    fn shuffled_order_is_competitive_with_alternatives() {
        use crate::spst::{spst_plan_with_order, VertexOrder};
        let graph = Dataset::Reddit.generate(0.004, 6);
        let topo = dgcl_topology::Topology::dgx1();
        let parts = kway(&graph, 8, 6);
        let pg = PartitionedGraph::new(&graph, parts, 8);
        let bytes = 1024;
        let shuffled = spst_plan_with_order(&pg, &topo, bytes, 6, VertexOrder::Shuffled);
        let by_id = spst_plan_with_order(&pg, &topo, bytes, 6, VertexOrder::ById);
        // Shuffling must not be much worse than id order (it is the
        // paper's default for a reason: it spreads sources).
        assert!(
            shuffled.cost.total_time() <= by_id.cost.total_time() * 1.25,
            "shuffled {} vs by-id {}",
            shuffled.cost.total_time(),
            by_id.cost.total_time()
        );
    }

    #[test]
    fn plans_are_trees_not_walks() {
        // Regression: the layered search used to route a path through
        // the same GPU at two depths when the detour hid under emptier
        // stage maxima (seen on block partitions of sparse ER graphs on
        // a flat PCIe host). `validate_plan` now rejects duplicate
        // deliveries, so validity alone certifies the tree invariant.
        use dgcl_graph::generators::erdos_renyi;
        use dgcl_partition::simple::block_partition;
        for devices in [4usize, 8] {
            for seed in [9u64, 108, 171] {
                let graph = erdos_renyi(39 + devices, 150, seed);
                let topo = dgcl_topology::Topology::pcie_host(devices);
                let parts = block_partition(&graph, devices);
                let pg = PartitionedGraph::new(&graph, parts, devices);
                let out = spst_plan(&pg, &topo, 1024, 42);
                assert!(
                    validate_plan(&out.plan, &pg).is_ok(),
                    "p={devices} seed={seed}: {:?}",
                    validate_plan(&out.plan, &pg)
                );
            }
        }
    }

    #[test]
    fn every_gpu_pair_demand_served_on_16_gpus() {
        let graph = Dataset::WikiTalk.generate(0.0015, 8);
        let topo = dgcl_topology::Topology::dgx1_pair_ib();
        let parts = kway(&graph, 16, 8);
        let pg = PartitionedGraph::new(&graph, parts, 16);
        let out = spst_plan(&pg, &topo, 1024, 8);
        assert!(validate_plan(&out.plan, &pg).is_ok());
    }

    #[test]
    fn exact_config_is_bit_identical_to_wrapper() {
        let graph = Dataset::WebGoogle.generate(0.002, 7);
        let topo = dgcl_topology::Topology::dgx1();
        let parts = kway(&graph, 8, 7);
        let pg = PartitionedGraph::new(&graph, parts, 8);
        let a = spst_plan(&pg, &topo, 1024, 7);
        let b = spst_plan_with_config(&pg, &topo, 1024, 7, SpstConfig::default());
        assert_eq!(a.plan.steps, b.plan.steps);
        assert_eq!(a.cost.total_time().to_bits(), b.cost.total_time().to_bits());
        assert_eq!(b.stats.full_searches, b.stats.demands);
        assert_eq!(b.stats.cache_commits, 0);
        assert_eq!(b.stats.speculative_commits, 0);
    }

    #[test]
    fn class_cache_reuses_trees_and_stays_close() {
        // 32 hubs share a single (src, dsts) signature: after one full
        // search the cache should absorb most of the rest.
        let pg = fig6_demand(0, &[2, 3], 32);
        let topo = dgcl_topology::Topology::fig6();
        let exact = spst_plan(&pg, &topo, 1 << 16, 4);
        let cached = spst_plan_with_config(
            &pg,
            &topo,
            1 << 16,
            4,
            SpstConfig {
                tolerance: 0.05,
                ..SpstConfig::default()
            },
        );
        assert!(validate_plan(&cached.plan, &pg).is_ok());
        assert!(
            cached.stats.cache_commits > 0,
            "no cache commits: {:?}",
            cached.stats
        );
        assert!(cached.stats.classes > 0);
        assert!(
            cached.cost.total_time() <= exact.cost.total_time() * 1.10,
            "cached {} vs exact {}",
            cached.cost.total_time(),
            exact.cost.total_time()
        );
    }

    #[test]
    fn parallel_planner_is_valid_and_close_to_exact() {
        let graph = Dataset::WebGoogle.generate(0.002, 9);
        let topo = dgcl_topology::Topology::dgx1();
        let parts = kway(&graph, 8, 9);
        let pg = PartitionedGraph::new(&graph, parts, 8);
        let bytes = 1024;
        let exact = spst_plan(&pg, &topo, bytes, 9);
        let parallel = spst_plan_with_config(&pg, &topo, bytes, 9, SpstConfig::batched(4));
        assert!(validate_plan(&parallel.plan, &pg).is_ok());
        assert!(parallel.stats.batches > 0);
        assert_eq!(
            parallel.stats.full_searches
                + parallel.stats.cache_commits
                + parallel.stats.speculative_commits,
            parallel.stats.demands,
            "stats do not partition the demand set: {:?}",
            parallel.stats
        );
        assert!(
            parallel.cost.total_time() <= exact.cost.total_time() * 1.05 + 1e-12,
            "parallel {} vs exact {}",
            parallel.cost.total_time(),
            exact.cost.total_time()
        );
    }

    #[test]
    fn parallel_planner_is_deterministic() {
        let graph = Dataset::WikiTalk.generate(0.0015, 10);
        let topo = dgcl_topology::Topology::dgx1();
        let parts = kway(&graph, 8, 10);
        let pg = PartitionedGraph::new(&graph, parts, 8);
        let cfg = SpstConfig::batched(3);
        let a = spst_plan_with_config(&pg, &topo, 512, 10, cfg);
        let b = spst_plan_with_config(&pg, &topo, 512, 10, cfg);
        assert_eq!(a.plan.steps, b.plan.steps);
        assert_eq!(a.stats, b.stats);
        assert_eq!(a.cost.total_time().to_bits(), b.cost.total_time().to_bits());
    }

    #[test]
    fn zero_tolerance_multithreaded_matches_exact_cost_model_validity() {
        // tolerance = 0 with threads > 1 still speculates, but only
        // bit-exact predictions are accepted; the plan stays valid and
        // every demand is accounted for.
        let graph = Dataset::WebGoogle.generate(0.001, 12);
        let topo = dgcl_topology::Topology::fig6();
        let parts = kway(&graph, 4, 12);
        let pg = PartitionedGraph::new(&graph, parts, 4);
        let out = spst_plan_with_config(
            &pg,
            &topo,
            256,
            12,
            SpstConfig {
                threads: 4,
                tolerance: 0.0,
                ..SpstConfig::default()
            },
        );
        assert!(validate_plan(&out.plan, &pg).is_ok());
        assert_eq!(
            out.stats.full_searches + out.stats.speculative_commits,
            out.stats.demands
        );
        assert_eq!(
            out.stats.cache_commits, 0,
            "cache must be off: {:?}",
            out.stats
        );
    }
}
