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
//! # Two reuse tiers
//!
//! The search above is exact but expensive: every tree extension runs a
//! layered Dijkstra over `O(m²)` states. [`spst_plan_with_config`] layers
//! two optimisations on top of it, neither of which changes what a tree
//! *is* — only how often, and how expensively, the full search runs:
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
//!    property. With the cache on, the search is also capped at seven
//!    layers (the full depth up to eight GPUs). This tier is what
//!    `dgcl::BuildOptions::default()` plans with: on the `e2e`
//!    `fullbatch-halo` inputs it runs 1 253 full searches where the
//!    exact planner runs 7 946, at a modelled plan cost 1.9% above the
//!    exact plan's; `tests/cache_quality.rs` and `repro table8` bound
//!    that ratio at 1.10 across datasets, machine sizes and seeds.
//! 2. **Search-state and weight reuse.** The Dijkstra scratch (heap,
//!    distance and parent arrays) lives in an epoch-stamped
//!    `SearchScratch`; an extension resets it by bumping a counter
//!    instead of rewriting `O(m²)` entries, and steady-state planning
//!    allocates nothing. Two exact cuts make each search cheaper, and
//!    both are always on, the exact planner included:
//!    - *A per-stage weight memo.* A relaxation `(depth, gpu → next)`
//!      reads only stage `depth`'s hop volumes and time, and a commit
//!      changes only the stages its tree touches. The scratch keeps every
//!      weight it priced, stamped with [`CostState::stage_version`], and
//!      reuses it while the stage's version is unchanged: the same
//!      expression on the same inputs, so the same float.
//!    - *Empty-stage dominance.* On a stage with no volume yet, a pair's
//!      weight is the same float at every depth, so past the first empty
//!      stage the layered graph repeats layer after layer. A GPU expanded
//!      at one empty depth is not expanded again deeper in the same
//!      search: every continuation of the deeper copy is matched by the
//!      shallower one with the same weights, at no larger a distance,
//!      and the heap's `(dist, depth, gpu)` order already prefers it.
//!
//!    On the `e2e` `fullbatch-halo` inputs (16 GPUs, 4 of 15 stages used)
//!    the two cuts take the exact search from 1.95M expanded states and
//!    24.5M priced weights to 0.72M and 1.03M, with the plan bit for bit
//!    the same ([`PlannerStats::states_expanded`] and
//!    [`PlannerStats::weight_evals`] count the work;
//!    `tests/plan_fingerprints.rs` pins the plans).
//!
//! Determinism contract: for a fixed `(seed, order, tolerance)` the
//! planner is bit-deterministic, and at `tolerance = 0`
//! ([`SpstConfig::default`]) it is bit-identical to the exact sequential
//! planner (the class cache is disabled, not merely unlikely to fire).
//! The exact planner is the oracle the cached plans are measured
//! against, and what the paper's figures plan with ([`spst_plan`]).

use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::collections::HashMap;
use std::time::Instant;

use dgcl_partition::PartitionedGraph;
use dgcl_topology::Topology;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use crate::cost::{CostState, PriceScratch};
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
    /// How each demand was resolved (full search or cache hit).
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

/// Configuration of the SPST planner.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SpstConfig {
    /// Vertex processing order.
    pub order: VertexOrder,
    /// Relative cost-drift tolerance for committing a cached tree without
    /// re-searching. `0.0` disables the demand-class cache and the search
    /// depth cap, reproducing the exact planner.
    pub tolerance: f64,
}

impl Default for SpstConfig {
    /// The exact planner: zero tolerance.
    fn default() -> Self {
        Self {
            order: VertexOrder::Shuffled,
            tolerance: 0.0,
        }
    }
}

impl SpstConfig {
    /// The demand-class cache at its defaults: 5% drift tolerance. The
    /// planner `dgcl::BuildOptions::default()` uses.
    pub fn cached() -> Self {
        Self {
            order: VertexOrder::Shuffled,
            tolerance: 0.05,
        }
    }
}

/// Maximum communication-tree depth the search covers when the class
/// cache is on (`tolerance > 0`): seven layers, the full `gpus - 1` up to
/// eight GPUs. On 16 GPUs the exact `fullbatch-halo` plan uses six
/// stages, and a dense plan ten or more. The search does not flood the
/// deep stages that are still empty (the empty-stage dominance cut, see
/// the module docs), so what the cap buys is fewer layers over stages
/// that already carry volume, and smaller trees to cache and re-price;
/// changing it changes the cached plans. A cap of four cost 12% of plan
/// cost on Wiki-Talk at 8 GPUs (`repro table8 --seed 7`); seven holds
/// every `table8` cell within 1.10 of the exact plan at seeds 7, 13 and
/// 42. The exact configuration keeps the full `gpus - 1` layers.
const CACHED_DEPTH_CAP: usize = 7;

/// Counters describing how the planner resolved each demand. The two
/// commit counters partition the demand set:
/// `full_searches + cache_commits == demands`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PlannerStats {
    /// Total multicast demands planned.
    pub demands: usize,
    /// Distinct `(src, dsts)` demand signatures (the reuse cache's
    /// capacity; populated even when `tolerance == 0` keeps it unused).
    pub classes: usize,
    /// Demands resolved by a full layered search.
    pub full_searches: usize,
    /// Demands committed straight from the demand-class cache.
    pub cache_commits: usize,
    /// Cache lookups that found an entry but skipped it because the plan
    /// total grew past tolerance since the entry's search.
    pub cache_stale: usize,
    /// Cache lookups whose re-priced tree delta drifted past tolerance.
    pub cache_rejected: usize,
    /// Layered-search states expanded (popped and relaxed) across every
    /// search. A deterministic measure of search work: it depends only
    /// on the inputs and the configuration.
    pub states_expanded: usize,
    /// Edge weights the searches priced with [`CostState::delta_slots`],
    /// counting only weights the per-stage memo could not reuse.
    pub weight_evals: usize,
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
///
/// A scratch belongs to one [`CostState`]: its weight memo is validated
/// against that state's stage versions.
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
    /// Edge weight memo: `memo_w[(depth·m + gpu)·m + next]` holds
    /// `delta_slots(depth, gpu → next) + tie_bytes(gpu, next)` as last
    /// computed, valid iff `memo_stamp` at the same index equals
    /// `CostState::stage_version(depth)`.
    memo_w: Vec<f64>,
    memo_stamp: Vec<u64>,
    /// Per GPU, the smallest depth at or past the first empty stage that
    /// this search has expanded (`usize::MAX` if none).
    empty_min_depth: Vec<usize>,
    /// Depth of each GPU in the tree under construction, `None` if absent.
    member_depth: Vec<Option<usize>>,
    /// Destinations not yet covered by the tree.
    remaining: Vec<bool>,
    path: Vec<(usize, usize)>,
    /// The last planned (or committed) tree.
    tree: Vec<TreeEdge>,
    /// Allocation-free scratch for whole-tree pricing re-checks.
    price: PriceScratch,
    /// Search work done with this scratch
    /// ([`PlannerStats::states_expanded`], [`PlannerStats::weight_evals`]).
    states_expanded: usize,
    weight_evals: usize,
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
            memo_w: vec![0.0; max_stages * m * m],
            // Stage versions count up from 0 and never reach this.
            memo_stamp: vec![u64::MAX; max_stages * m * m],
            empty_min_depth: vec![usize::MAX; m],
            member_depth: vec![None; m],
            remaining: vec![false; m],
            path: Vec::new(),
            tree: Vec::new(),
            price: cost.price_scratch(),
            states_expanded: 0,
            weight_evals: 0,
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
/// each chosen edge into `cost`. Leaves the tree in `scratch.tree` and
/// returns the realised total cost delta.
fn plan_tree(
    topology: &Topology,
    cost: &mut CostState,
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
        memo_w,
        memo_stamp,
        empty_min_depth,
        member_depth,
        remaining,
        path,
        tree,
        price: _,
        states_expanded,
        weight_evals,
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
        // Stages `empty_from..max_stages` carry no volume yet (the search
        // itself commits nothing, so this holds for the whole extension).
        let empty_from = (0..max_stages)
            .rev()
            .take_while(|&stage| cost.stage_time(stage) == 0.0)
            .last()
            .unwrap_or(max_stages);
        empty_min_depth.fill(usize::MAX);
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
            // Empty-stage dominance. Every stage from `empty_from` on is
            // empty, and on an empty stage `delta_slots` returns the same
            // float for a pair at every depth, so there the layered graph
            // repeats layer after layer. If `(gpu, d')` with
            // `empty_from <= d' < depth` was already expanded, every path
            // onward from `(gpu, depth)` has a copy from `(gpu, d')` over
            // the same GPUs with the same weights, ending at a smaller
            // depth at a distance no larger (`(gpu, d')` popped first,
            // and float addition is monotone). States pop in
            // `(dist, depth, gpu)` order, so a target reached through
            // `(gpu, depth)` always has a copy that pops first: the first
            // target popped, which the keep-first rule chooses, and its
            // path never run through `(gpu, depth)`, and skipping the
            // expansion leaves the target, its distance and its path
            // unchanged. The target check stays ahead of this cut.
            if depth >= empty_from {
                if empty_min_depth[gpu] < depth {
                    continue;
                }
                empty_min_depth[gpu] = depth;
            }
            *states_expanded += 1;
            // A relaxation `(depth, gpu -> next)` reads only stage
            // `depth`'s hop volumes and time, so its weight is reused
            // while the stage's version is unchanged: between extensions
            // a commit touches only the stages its path uses.
            let version = cost.stage_version(depth);
            let memo_row = (depth * m + gpu) * m;
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
                let k = memo_row + next;
                let w = if memo_stamp[k] == version {
                    memo_w[k]
                } else {
                    *weight_evals += 1;
                    let w = cost.delta_slots(depth, pairs.slots(gpu, next), bytes_per_vertex)
                        + pairs.tie_bytes(gpu, next);
                    memo_w[k] = w;
                    memo_stamp[k] = version;
                    w
                };
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
            realised += cost.add(
                stage,
                topology.route(parent_gpu, child_gpu),
                bytes_per_vertex,
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

/// Resolves one demand, leaving the committed tree in `scratch.tree`:
/// the cheapest cached class tree whose live delta is within tolerance of
/// its search baseline, else a full layered search (which refreshes the
/// class cache).
#[allow(clippy::too_many_arguments)]
fn commit_demand(
    topology: &Topology,
    cost: &mut CostState,
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
) {
    let use_cache = tolerance > 0.0;
    let total_now = cost.total_time();
    if use_cache {
        let budget = DRIFT_BUDGET * tolerance * total_now;
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
                // seeds).
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
    let realised = plan_tree(topology, cost, scratch, pairs, src as usize, dsts, bytes);
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
/// This is the exact planner ([`SpstConfig::default`]); use
/// [`spst_plan_with_config`] for the demand-class cache.
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

/// Runs the SPST planner with `config` (see the module docs for the
/// class cache and the determinism contract).
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

    // Per-pair hop slots and pre-scaled tie-break terms.
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
    // The capped search depth applies only with the class cache on; the
    // exact configuration keeps the full `m - 1` layers.
    let search_depth = if config.tolerance > 0.0 {
        CACHED_DEPTH_CAP.min(max_stages)
    } else {
        max_stages
    };
    let mut scratch = SearchScratch::new(m, search_depth, &cost);
    // Cumulative reuse drift spent against the global budget.
    let mut drift_spent = 0.0f64;
    // The cache is only ever indexed when `tolerance > 0`; leave it empty
    // (rather than `num_classes` slots of dead weight) otherwise.
    let mut cache: Vec<CachedClass> = Vec::new();
    if config.tolerance > 0.0 {
        cache.resize_with(num_classes, CachedClass::default);
    }
    for ((vertex, src, dsts), &class_id) in demands.iter().zip(&class_ids) {
        commit_demand(
            topology,
            &mut cost,
            &mut scratch,
            &pairs,
            &mut cache,
            &mut stats,
            &mut drift_spent,
            config.tolerance,
            class_id,
            *src,
            dsts,
            bytes_per_vertex,
        );
        for e in &scratch.tree {
            edges.push((*vertex, e.src as usize, e.dst as usize, e.stage as usize));
        }
    }
    stats.states_expanded = scratch.states_expanded;
    stats.weight_evals = scratch.weight_evals;
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
    }

    #[test]
    fn class_cache_reuses_trees_and_stays_close() {
        // 32 hubs share a single (src, dsts) signature: after one full
        // search the cache should absorb most of the rest.
        let pg = fig6_demand(0, &[2, 3], 32);
        let topo = dgcl_topology::Topology::fig6();
        let exact = spst_plan(&pg, &topo, 1 << 16, 4);
        let cached = spst_plan_with_config(&pg, &topo, 1 << 16, 4, SpstConfig::cached());
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
}
