//! Multilevel k-way partitioner (METIS-style).
//!
//! Three phases, as in Karypis & Kumar's multilevel scheme the paper's
//! METIS dependency implements:
//!
//! 1. **Coarsening** — repeated heavy-edge matching collapses the graph
//!    until it is small. A level on which heavy-edge matching leaves more
//!    than a tenth of the vertices alone also pairs lone vertices that
//!    share a neighbour (two-hop matching, as METIS 5 does), so a hub
//!    graph, whose leaves can pair only with their hub, keeps shrinking.
//! 2. **Initial partitioning** — greedy region growing on the coarsest
//!    graph.
//! 3. **Uncoarsening** — the partition is projected back level by level,
//!    with boundary FM refinement and explicit rebalancing at each level.
//!
//! # Cost
//!
//! Coarsening copies nothing and never sorts a level's edge list. The
//! finest level reads the input `CsrGraph` in place: it borrows the
//! offsets and targets and stores no edge weights, since every input edge
//! weighs 1. Matching there reads each visited row only up to its first
//! eligible neighbour, the one the tie rule keeps when every edge weighs
//! 1; a weighted level reads each visited row whole. Each coarse row is
//! built directly: fine vertices are bucketed by coarse id, the row's
//! edges are merged in a dense accumulator with no per-edge branch, and
//! the row is emitted ascending either by walking a bitset of the coarse
//! ids it touched (a dense row) or by sorting just those ids (a sparse
//! one). A coarse level's arrays are sized once from its fine level's
//! edge count.
//! Refinement reads every edge of a level once, in its first pass; a
//! boundary vertex keeps its edge weight into each part as a row of `k`
//! entries, updated when a neighbour moves, so a later pass reads only
//! the edges of movers and of interior vertices a move put on the
//! boundary. A coarse level and its map are freed once projected.
//! The initial growing's fallback to "any free vertex" resumes from a
//! cursor instead of rescanning, so it reads O(n) entries per part. None
//! of this bookkeeping changes a partition: it yields exactly what the
//! sort-based coarsening over a weighted copy of the input, full-row
//! matching, recounting refinement and the rescanning fallback yielded.

use std::borrow::Cow;

use dgcl_graph::CsrGraph;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

use crate::Partition;

/// Default allowed imbalance: largest part at most 5% above ideal.
pub const DEFAULT_IMBALANCE: f64 = 1.05;

/// A coarse row is emitted by scanning the touched-id bitset when it
/// touches at least one id per `DENSE_ROW_SHARE` of the bitset's 64-bit
/// words; a sparser one sorts its touched ids. Both give the same
/// ascending row, so this is a cost constant only (see [`contract`]).
const DENSE_ROW_SHARE: usize = 4;

/// Whether `contract` emits a row of `touched` coarse ids by scanning a
/// bitset of `words` words rather than by sorting.
fn scans_bitset(touched: usize, words: usize) -> bool {
    touched * DENSE_ROW_SHARE >= words
}

/// A level runs two-hop matching when heavy-edge matching leaves more
/// than one vertex in `TWO_HOP_UNMATCHED_SHARE` alone: METIS 5's 10 %.
/// Below that share the heavy-edge map is kept as it is.
const TWO_HOP_UNMATCHED_SHARE: usize = 10;

/// Vertex- and edge-weighted graph used internally across coarsening
/// levels. The finest level borrows the input's CSR arrays and stores no
/// edge weights, since every input edge weighs 1; coarse levels own
/// theirs.
struct WeightedGraph<'g> {
    offsets: Cow<'g, [usize]>,
    targets: Cow<'g, [u32]>,
    /// `None` when every edge weighs 1.
    eweights: Option<Vec<u64>>,
    vweights: Vec<u64>,
}

impl<'g> WeightedGraph<'g> {
    fn from_csr(g: &'g CsrGraph) -> Self {
        Self {
            offsets: Cow::Borrowed(g.offsets()),
            targets: Cow::Borrowed(g.targets()),
            eweights: None,
            vweights: vec![1; g.num_vertices()],
        }
    }

    fn num_vertices(&self) -> usize {
        self.vweights.len()
    }

    fn num_edges(&self) -> usize {
        self.targets.len()
    }

    fn neighbors(&self, v: u32) -> impl Iterator<Item = (u32, u64)> + '_ {
        let range = self.offsets[v as usize]..self.offsets[v as usize + 1];
        let weights = self.eweights.as_ref().map(|w| &w[range.clone()]);
        self.targets[range]
            .iter()
            .enumerate()
            .map(move |(i, &t)| (t, weights.map_or(1, |w| w[i])))
    }

    fn total_vweight(&self) -> u64 {
        self.vweights.iter().sum()
    }
}

/// Partitions `graph` into `k` balanced parts minimising the edge cut.
/// `graph` must be symmetric, every edge stored in both directions, as
/// METIS requires of its input; debug builds check it.
///
/// Uses [`DEFAULT_IMBALANCE`]; see [`kway_with_imbalance`] for control.
///
/// # Panics
///
/// Panics if `k == 0` or `k > graph.num_vertices()` (for non-empty
/// graphs).
pub fn kway(graph: &CsrGraph, k: usize, seed: u64) -> Partition {
    kway_with_imbalance(graph, k, seed, DEFAULT_IMBALANCE)
}

/// Partitions `graph` into `k` parts with an explicit balance bound:
/// every part's vertex count stays at or below `imbalance * n / k`
/// (up to rounding). `graph` must be symmetric, as for [`kway`].
///
/// # Panics
///
/// Panics if `k == 0`, `imbalance < 1.0`, or `k > graph.num_vertices()`
/// for a non-empty graph.
pub fn kway_with_imbalance(graph: &CsrGraph, k: usize, seed: u64, imbalance: f64) -> Partition {
    assert!(k > 0, "need at least one part");
    assert!(imbalance >= 1.0, "imbalance bound must be >= 1.0");
    let n = graph.num_vertices();
    if n == 0 {
        return Vec::new();
    }
    assert!(k <= n, "cannot split {n} vertices into {k} parts");
    debug_assert!(graph.is_symmetric(), "kway partitions a symmetric graph");
    if k == 1 {
        return vec![0; n];
    }
    let mut rng = StdRng::seed_from_u64(seed);
    let base = WeightedGraph::from_csr(graph);

    // Phase 1: coarsen. Cap coarse vertex weights so hubs cannot swallow
    // whole parts (which would make balanced refinement impossible).
    let coarse_target = (30 * k).max(128);
    let max_vertex_weight = ((n as f64 / k as f64) * 0.6).ceil().max(2.0) as u64;
    let mut levels: Vec<WeightedGraph<'_>> = vec![base];
    let mut maps: Vec<Vec<u32>> = Vec::new();
    loop {
        let current = levels.last().expect("at least the base level");
        if current.num_vertices() <= coarse_target {
            break;
        }
        let (coarse, map) = coarsen(current, &mut rng, max_vertex_weight);
        // Stop when matching no longer shrinks the graph meaningfully.
        if coarse.num_vertices() as f64 > 0.95 * current.num_vertices() as f64 {
            break;
        }
        levels.push(coarse);
        maps.push(map);
    }

    // Phase 2: initial partition on the coarsest level.
    let coarsest = levels.last().expect("non-empty");
    let max_weight = max_part_weight(coarsest.total_vweight(), k, imbalance);
    let mut partition = grow_initial(coarsest, k, &mut rng);
    rebalance(coarsest, &mut partition, k, max_weight);
    refine(coarsest, &mut partition, k, max_weight, 8);

    // Phase 3: project back up, refining at each level. A coarse level and
    // its map are dropped once projected, so refinement's rows share the
    // heap only with the levels still to refine.
    while let Some(map) = maps.pop() {
        levels.pop();
        let fine = levels.last().expect("a map's fine level");
        partition = map.iter().map(|&c| partition[c as usize]).collect();
        drop(map);
        let max_weight = max_part_weight(fine.total_vweight(), k, imbalance);
        rebalance(fine, &mut partition, k, max_weight);
        refine(fine, &mut partition, k, max_weight, 4);
    }
    partition
}

fn max_part_weight(total: u64, k: usize, imbalance: f64) -> u64 {
    let ideal = total as f64 / k as f64;
    (ideal * imbalance).ceil() as u64 + 1
}

/// Collapses matched pairs into coarse vertices: heavy-edge matching,
/// then, when that leaves more than one vertex in
/// `TWO_HOP_UNMATCHED_SHARE` alone, two-hop matching (see
/// [`match_two_hop`]). No pair's combined weight exceeds
/// `max_vertex_weight`.
///
/// Coarse ids are handed out in the shuffled visiting order, to the
/// first member of each pair, so a level that needs no two-hop pass gets
/// exactly the heavy-edge map.
fn coarsen(
    g: &WeightedGraph<'_>,
    rng: &mut StdRng,
    max_vertex_weight: u64,
) -> (WeightedGraph<'static>, Vec<u32>) {
    let n = g.num_vertices();
    let mut order: Vec<u32> = (0..n as u32).collect();
    order.shuffle(rng);
    let mut mate = match_heavy_edges(g, &order, max_vertex_weight);
    let alone = mate
        .iter()
        .enumerate()
        .filter(|&(v, &m)| m as usize == v)
        .count();
    if alone * TWO_HOP_UNMATCHED_SHARE > n {
        match_two_hop(g, &mut mate, max_vertex_weight);
    }
    let (map, cn) = number_pairs(&order, &mate);
    // Freed before the contraction, the level's largest step.
    drop(mate);
    (contract(g, &map, cn), map)
}

/// Numbers the pairs of `mate` in visiting order `order`: the first
/// member visited hands its pair the next coarse id. Returns the map and
/// the number of coarse ids.
fn number_pairs(order: &[u32], mate: &[u32]) -> (Vec<u32>, usize) {
    const UNASSIGNED: u32 = u32::MAX;
    let mut map = vec![UNASSIGNED; mate.len()];
    let mut next_coarse = 0u32;
    for &v in order {
        if map[v as usize] == UNASSIGNED {
            map[v as usize] = next_coarse;
            map[mate[v as usize] as usize] = next_coarse;
            next_coarse += 1;
        }
    }
    (map, next_coarse as usize)
}

/// Heavy-edge matching in visiting order `order`: each vertex not yet
/// matched pairs with its heaviest-edge neighbour not yet matched (the
/// first such on a tie) whose combined weight stays within
/// `max_vertex_weight`, or with itself when there is none. Returns
/// `mate`, where `mate[mate[v]] == v` and `mate[v] == v` for a vertex
/// left alone. On a unit-weight level every eligible edge ties, so the
/// scan of a row stops at its first eligible neighbour.
fn match_heavy_edges(g: &WeightedGraph<'_>, order: &[u32], max_vertex_weight: u64) -> Vec<u32> {
    const UNMATCHED: u32 = u32::MAX;
    let unit = g.eweights.is_none();
    let mut mate = vec![UNMATCHED; g.num_vertices()];
    for &v in order {
        if mate[v as usize] != UNMATCHED {
            continue;
        }
        let mut best: Option<(u32, u64)> = None;
        for (u, w) in g.neighbors(v) {
            if mate[u as usize] == UNMATCHED
                && u != v
                && g.vweights[v as usize] + g.vweights[u as usize] <= max_vertex_weight
            {
                match best {
                    Some((_, bw)) if bw >= w => {}
                    _ => best = Some((u, w)),
                }
                if unit {
                    break;
                }
            }
        }
        let u = best.map_or(v, |(u, _)| u);
        mate[v as usize] = u;
        mate[u as usize] = v;
    }
    mate
}

/// Two-hop matching (METIS 5; LaSalle et al., IA3 2015): pairs vertices
/// that heavy-edge matching left alone and that share a neighbour. On a
/// hub graph most vertices are leaves whose only neighbour is a hub, so
/// heavy-edge matching pairs at most one leaf per hub; here each vertex's
/// lone neighbours pair up with each other, in row order, in one pass
/// over the edges. A pair whose combined weight would exceed
/// `max_vertex_weight` is skipped, and the lighter of the two waits for
/// the next lone neighbour.
fn match_two_hop(g: &WeightedGraph<'_>, mate: &mut [u32], max_vertex_weight: u64) {
    for h in 0..g.num_vertices() as u32 {
        let mut waiting: Option<u32> = None;
        for (u, _) in g.neighbors(h) {
            if u == h || mate[u as usize] != u {
                continue;
            }
            waiting = match waiting {
                Some(p) if g.vweights[p as usize] + g.vweights[u as usize] <= max_vertex_weight => {
                    mate[p as usize] = u;
                    mate[u as usize] = p;
                    None
                }
                Some(p) if g.vweights[p as usize] <= g.vweights[u as usize] => Some(p),
                _ => Some(u),
            };
        }
    }
}

/// Builds the coarse graph of `g` whose `cn` vertices are the classes of
/// `map`: vertex weights add up, edges between two classes merge into one
/// whose weight is their sum, and edges inside a class vanish.
///
/// Row by row: the fine vertices are bucketed by coarse id, and each
/// coarse row accumulates its members' neighbours into a dense `acc`,
/// marking each coarse id it touches in a bitset of `cn` bits. Every edge
/// does the same work, with no first-touch branch: it sets its id's bit,
/// adds into `acc`, and writes the id at the end of the row buffer, whose
/// length grows only when the bit was clear. The class's own id (its
/// internal edges) is then dropped once per row: its bit and `acc` entry
/// are cleared, and a sorted row skips it. A dense row is emitted by walking the bitset's
/// words with `trailing_zeros`, a sparse one by sorting its touched ids;
/// either way the row comes out ascending, and each emitted id's `acc`
/// entry and bit are cleared for the next row. Rows come out in ascending
/// coarse id, the same CSR a global sort of every `(cv, cu, w)` triple
/// yields, without that sort. A coarse level has no more edges than its
/// fine level, so the arrays are sized once.
fn contract(g: &WeightedGraph<'_>, map: &[u32], cn: usize) -> WeightedGraph<'static> {
    let n = g.num_vertices();
    let mut vweights = vec![0u64; cn];
    let mut start = vec![0usize; cn + 1];
    for v in 0..n {
        vweights[map[v] as usize] += g.vweights[v];
        start[map[v] as usize + 1] += 1;
    }
    for c in 0..cn {
        start[c + 1] += start[c];
    }
    let mut fill = start.clone();
    let mut members = vec![0u32; n];
    for (v, &c) in map.iter().enumerate() {
        members[fill[c as usize]] = v as u32;
        fill[c as usize] += 1;
    }
    drop(fill);
    let mut acc = vec![0u64; cn];
    let mut touched = vec![0u64; cn.div_ceil(64)];
    // A row holds each of the `cn` ids at most once, and every edge writes
    // one slot past the row's end.
    let mut row = vec![0u32; cn + 1];
    let mut offsets = Vec::with_capacity(cn + 1);
    let mut targets = Vec::with_capacity(g.num_edges());
    let mut eweights = Vec::with_capacity(g.num_edges());
    offsets.push(0);
    for cv in 0..cn {
        let mut len = 0usize;
        for &v in &members[start[cv]..start[cv + 1]] {
            for (u, w) in g.neighbors(v) {
                let cu = map[u as usize] as usize;
                let (word, bit) = (cu / 64, 1u64 << (cu % 64));
                let fresh = touched[word] & bit == 0;
                touched[word] |= bit;
                acc[cu] += w;
                row[len] = cu as u32;
                len += usize::from(fresh);
            }
        }
        let (word, bit) = (cv / 64, 1u64 << (cv % 64));
        let internal = touched[word] & bit != 0;
        touched[word] &= !bit;
        acc[cv] = 0;
        if scans_bitset(len - usize::from(internal), touched.len()) {
            for (i, word) in touched.iter_mut().enumerate() {
                let mut bits = *word;
                while bits != 0 {
                    let cu = i * 64 + bits.trailing_zeros() as usize;
                    targets.push(cu as u32);
                    eweights.push(acc[cu]);
                    acc[cu] = 0;
                    bits &= bits - 1;
                }
                *word = 0;
            }
        } else {
            let row = &mut row[..len];
            row.sort_unstable();
            for &cu in row.iter().filter(|&&cu| cu as usize != cv) {
                targets.push(cu);
                eweights.push(acc[cu as usize]);
                acc[cu as usize] = 0;
                touched[(cu / 64) as usize] = 0;
            }
        }
        offsets.push(targets.len());
    }
    WeightedGraph {
        offsets: Cow::Owned(offsets),
        targets: Cow::Owned(targets),
        eweights: Some(eweights),
        vweights,
    }
}

/// Greedy region growing for the initial k-way partition.
fn grow_initial(g: &WeightedGraph<'_>, k: usize, rng: &mut StdRng) -> Partition {
    let n = g.num_vertices();
    const FREE: u32 = u32::MAX;
    let mut partition = vec![FREE; n];
    let total = g.total_vweight();
    let target = total / k as u64;
    let mut remaining: Vec<u32> = (0..n as u32).collect();
    for p in 0..(k - 1) as u32 {
        remaining.retain(|&v| partition[v as usize] == FREE);
        if remaining.is_empty() {
            break;
        }
        let seed_vertex = remaining[rng.gen_range(0..remaining.len())];
        // Vertices only ever leave FREE and `remaining` is fixed while `p`
        // grows, so the first free entry never moves back: each fallback
        // resumes its scan where the last one stopped.
        let mut cursor = 0usize;
        let mut weight = 0u64;
        let mut frontier: Vec<u32> = vec![seed_vertex];
        partition[seed_vertex as usize] = p;
        weight += g.vweights[seed_vertex as usize];
        while weight < target {
            // Pick the frontier neighbour with the strongest connection to
            // the region; fall back to any free vertex to guarantee
            // progress in disconnected graphs.
            let mut best: Option<(u32, u64)> = None;
            for &v in &frontier {
                for (u, w) in g.neighbors(v) {
                    if partition[u as usize] == FREE {
                        match best {
                            Some((_, bw)) if bw >= w => {}
                            _ => best = Some((u, w)),
                        }
                    }
                }
            }
            let chosen = match best {
                Some((u, _)) => u,
                None => match remaining[cursor..]
                    .iter()
                    .position(|&v| partition[v as usize] == FREE)
                {
                    Some(i) => {
                        cursor += i;
                        remaining[cursor]
                    }
                    None => break,
                },
            };
            partition[chosen as usize] = p;
            weight += g.vweights[chosen as usize];
            frontier.push(chosen);
            if frontier.len() > 64 {
                // Keep the frontier bounded: old interior vertices rarely
                // have free neighbours left.
                frontier.drain(0..32);
            }
        }
    }
    for p in &mut partition {
        if *p == FREE {
            *p = (k - 1) as u32;
        }
    }
    partition
}

/// Moves vertices out of overweight parts until the bound holds, or no
/// move can make progress (possible when one coarse vertex alone exceeds
/// the bound — later, finer levels fix it).
fn rebalance(g: &WeightedGraph<'_>, partition: &mut [u32], k: usize, max_weight: u64) {
    let mut weights = vec![0u64; k];
    for (v, &p) in partition.iter().enumerate() {
        weights[p as usize] += g.vweights[v];
    }
    let mut budget = 4 * g.num_vertices() + 16;
    loop {
        if budget == 0 {
            return;
        }
        budget -= 1;
        let Some(over) = (0..k).find(|&p| weights[p] > max_weight) else {
            return;
        };
        // Move the overweight part's lightest-penalty vertex into the
        // lightest part — but only if that strictly improves the pair's
        // maximum, otherwise the move would ping-pong forever.
        let lightest = (0..k).min_by_key(|&p| weights[p]).expect("k > 0");
        if lightest == over {
            return;
        }
        let mut best: Option<(u32, i64)> = None;
        for (v, &p) in partition.iter().enumerate() {
            if p as usize != over {
                continue;
            }
            if weights[lightest] + g.vweights[v] >= weights[over] {
                continue;
            }
            let mut internal = 0i64;
            let mut to_light = 0i64;
            for (u, w) in g.neighbors(v as u32) {
                if partition[u as usize] as usize == over {
                    internal += w as i64;
                } else if partition[u as usize] as usize == lightest {
                    to_light += w as i64;
                }
            }
            let gain = to_light - internal;
            match best {
                Some((_, bg)) if bg >= gain => {}
                _ => best = Some((v as u32, gain)),
            }
        }
        let Some((v, _)) = best else { return };
        partition[v as usize] = lightest as u32;
        weights[over] -= g.vweights[v as usize];
        weights[lightest] += g.vweights[v as usize];
    }
}

/// Boundary FM refinement: greedily move boundary vertices to the part
/// they are most connected to, subject to the weight bound.
///
/// A pass visits `0..n` in order. The first time a vertex is visited, its
/// edge weight into every part is counted from its edges; a boundary
/// vertex keeps that count as a row of `k` entries, and an interior one
/// (every neighbour in its own part) is marked and skipped until a
/// neighbour moves. A move updates the rows of the vertices whose edges
/// point at the mover: on a symmetric level (every level of a symmetric
/// input is one) those are the mover's own neighbours, with the same
/// weights, and a marked neighbour is counted again when next visited.
/// Each decision therefore reads exactly what recounting the vertex's
/// edges would give, so every move is the one a recount makes, while a
/// pass after the first reads only the edges of movers and their interior
/// neighbours.
fn refine(g: &WeightedGraph<'_>, partition: &mut [u32], k: usize, max_weight: u64, passes: usize) {
    /// Not counted yet, or a neighbour moved since it was found interior.
    const UNCOUNTED: u32 = u32::MAX;
    /// Every neighbour in the vertex's own part.
    const INTERIOR: u32 = u32::MAX - 1;
    let n = g.num_vertices();
    assert!(n < INTERIOR as usize, "{n} vertices overflow the row index");
    let mut weights = vec![0u64; k];
    for (v, &p) in partition.iter().enumerate() {
        weights[p as usize] += g.vweights[v];
    }
    // `slot[v]`: the index of `v`'s row in `conn`, or a marker.
    let mut slot = vec![UNCOUNTED; n];
    let mut conn: Vec<i64> = Vec::new();
    let mut count = vec![0i64; k];
    for _ in 0..passes {
        let mut moved = 0usize;
        for v in 0..n {
            let current = partition[v] as usize;
            let row = match slot[v] {
                INTERIOR => continue,
                UNCOUNTED => {
                    count.fill(0);
                    let mut boundary = false;
                    for (u, w) in g.neighbors(v as u32) {
                        let up = partition[u as usize] as usize;
                        count[up] += w as i64;
                        boundary |= up != current;
                    }
                    if !boundary {
                        slot[v] = INTERIOR;
                        continue;
                    }
                    slot[v] = (conn.len() / k) as u32;
                    conn.extend_from_slice(&count);
                    &conn[conn.len() - k..]
                }
                // A counted vertex that has since become interior has all
                // its weight in its own part: every gain is negative and
                // it stays, as a recount's skip would keep it.
                s => &conn[s as usize * k..(s as usize + 1) * k],
            };
            let vw = g.vweights[v];
            let mut best = current;
            let mut best_gain = 0i64;
            for p in 0..k {
                if p == current || weights[p] + vw > max_weight {
                    continue;
                }
                let gain = row[p] - row[current];
                let better = gain > best_gain
                    || (gain == best_gain && best == current && weights[p] + vw < weights[current]);
                if better {
                    best = p;
                    best_gain = gain;
                }
            }
            if best != current {
                partition[v] = best as u32;
                weights[current] -= vw;
                weights[best] += vw;
                moved += 1;
                for (u, w) in g.neighbors(v as u32) {
                    match slot[u as usize] {
                        INTERIOR => slot[u as usize] = UNCOUNTED,
                        UNCOUNTED => {}
                        s => {
                            conn[s as usize * k + current] -= w as i64;
                            conn[s as usize * k + best] += w as i64;
                        }
                    }
                }
            }
        }
        if moved == 0 {
            break;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::{balance, edge_cut};
    use dgcl_graph::generators::{barabasi_albert, erdos_renyi, hub_attachment};
    use dgcl_graph::GraphBuilder;
    use proptest::prelude::{any, prop_assert, prop_assert_eq, proptest, ProptestConfig};

    /// The sort-and-merge coarse-edge aggregation `contract` replaced: one
    /// `(cv, cu, w)` triple per fine edge, sorted, duplicates summed.
    fn contract_reference(g: &WeightedGraph<'_>, map: &[u32], cn: usize) -> WeightedGraph<'static> {
        let n = g.num_vertices();
        let mut vweights = vec![0u64; cn];
        for v in 0..n {
            vweights[map[v] as usize] += g.vweights[v];
        }
        let mut triples: Vec<(u32, u32, u64)> = Vec::with_capacity(g.num_edges());
        for v in 0..n as u32 {
            let cv = map[v as usize];
            for (u, w) in g.neighbors(v) {
                let cu = map[u as usize];
                if cu != cv {
                    triples.push((cv, cu, w));
                }
            }
        }
        triples.sort_unstable_by_key(|&(a, b, _)| (a, b));
        let mut offsets = Vec::with_capacity(cn + 1);
        let mut targets = Vec::new();
        let mut eweights = Vec::new();
        offsets.push(0);
        let mut cursor = 0usize;
        for cv in 0..cn as u32 {
            while cursor < triples.len() && triples[cursor].0 == cv {
                let (_, cu, mut w) = triples[cursor];
                cursor += 1;
                while cursor < triples.len() && triples[cursor].0 == cv && triples[cursor].1 == cu {
                    w += triples[cursor].2;
                    cursor += 1;
                }
                targets.push(cu);
                eweights.push(w);
            }
            offsets.push(targets.len());
        }
        WeightedGraph {
            offsets: Cow::Owned(offsets),
            targets: Cow::Owned(targets),
            eweights: Some(eweights),
            vweights,
        }
    }

    /// Boundary FM refinement as it was before the connectivity rows:
    /// every visit recounts the vertex's edge weight into each part.
    fn refine_reference(
        g: &WeightedGraph<'_>,
        partition: &mut [u32],
        k: usize,
        max_weight: u64,
        passes: usize,
    ) {
        let n = g.num_vertices();
        let mut weights = vec![0u64; k];
        for (v, &p) in partition.iter().enumerate() {
            weights[p as usize] += g.vweights[v];
        }
        let mut conn = vec![0i64; k];
        for _ in 0..passes {
            let mut moved = 0usize;
            for v in 0..n as u32 {
                let current = partition[v as usize] as usize;
                conn.iter_mut().for_each(|c| *c = 0);
                let mut boundary = false;
                for (u, w) in g.neighbors(v) {
                    let up = partition[u as usize] as usize;
                    conn[up] += w as i64;
                    if up != current {
                        boundary = true;
                    }
                }
                if !boundary {
                    continue;
                }
                let vw = g.vweights[v as usize];
                let mut best = current;
                let mut best_gain = 0i64;
                for p in 0..k {
                    if p == current || weights[p] + vw > max_weight {
                        continue;
                    }
                    let gain = conn[p] - conn[current];
                    let better = gain > best_gain
                        || (gain == best_gain
                            && best == current
                            && weights[p] + vw < weights[current]);
                    if better {
                        best = p;
                        best_gain = gain;
                    }
                }
                if best != current {
                    partition[v as usize] = best as u32;
                    weights[current] -= vw;
                    weights[best] += vw;
                    moved += 1;
                }
            }
            if moved == 0 {
                break;
            }
        }
    }

    /// A random symmetric weighted graph on `n` vertices whose last
    /// `isolated` (at most `n - 1`) have no edge: each of `edges` draws
    /// adds `(v, u, w)` and `(u, v, w)`, or the self-loop `(v, v, w)` once
    /// when `u == v`, with `w` below `max_edge_weight`. Parallel edges are
    /// kept; vertex weights are 1 to 4.
    fn random_symmetric(
        n: usize,
        isolated: usize,
        edges: usize,
        max_edge_weight: u64,
        seed: u64,
    ) -> WeightedGraph<'static> {
        let mut rng = StdRng::seed_from_u64(seed);
        let linked = n.saturating_sub(isolated).max(1);
        let mut rows: Vec<Vec<(u32, u64)>> = vec![Vec::new(); n];
        for _ in 0..edges {
            let v = rng.gen_range(0..linked);
            let u = rng.gen_range(0..linked);
            let w = rng.gen_range(1..max_edge_weight);
            rows[v].push((u as u32, w));
            if u != v {
                rows[u].push((v as u32, w));
            }
        }
        let mut offsets = vec![0];
        let mut targets = Vec::new();
        let mut eweights = Vec::new();
        for row in &rows {
            for &(u, w) in row {
                targets.push(u);
                eweights.push(w);
            }
            offsets.push(targets.len());
        }
        WeightedGraph {
            offsets: Cow::Owned(offsets),
            targets: Cow::Owned(targets),
            eweights: Some(eweights),
            vweights: (0..n).map(|_| rng.gen_range(1..5)).collect(),
        }
    }

    /// Runs `refine` and `refine_reference` for `passes` passes from the
    /// same random start into `k` parts, with the part weight bound tight
    /// (the ideal plus one) or loose (the whole graph), and returns both
    /// partitions and the start.
    fn refine_both(
        g: &WeightedGraph<'_>,
        k: usize,
        tight: bool,
        passes: usize,
        seed: u64,
    ) -> (Partition, Partition, Partition) {
        let mut rng = StdRng::seed_from_u64(seed);
        let start: Partition = (0..g.num_vertices())
            .map(|_| rng.gen_range(0..k as u32))
            .collect();
        let total = g.total_vweight();
        let max_weight = if tight {
            max_part_weight(total, k, 1.0)
        } else {
            total
        };
        let mut fast = start.clone();
        refine(g, &mut fast, k, max_weight, passes);
        let mut slow = start.clone();
        refine_reference(g, &mut slow, k, max_weight, passes);
        (fast, slow, start)
    }

    /// A random map of `n` vertices onto classes of one to `max_class`
    /// vertices, and the class count. With `max_class == 2` these are
    /// the pairs and singletons heavy-edge matching produces; larger
    /// classes hold more of the edges inside a class.
    fn random_map(n: usize, max_class: usize, rng: &mut StdRng) -> (Vec<u32>, usize) {
        let mut order: Vec<u32> = (0..n as u32).collect();
        order.shuffle(rng);
        let mut map = vec![0u32; n];
        let mut cn = 0;
        let mut i = 0;
        while i < n {
            let mut size = 1;
            while size < max_class && i + size < n && rng.gen_bool(0.5) {
                size += 1;
            }
            for &v in &order[i..i + size] {
                map[v as usize] = cn as u32;
            }
            i += size;
            cn += 1;
        }
        (map, cn)
    }

    /// A random weighted graph on `n` vertices (self-loops and parallel
    /// edges included) and a random map onto classes of at most
    /// `max_class` vertices.
    fn random_instance(
        n: usize,
        edges: usize,
        max_class: usize,
        seed: u64,
    ) -> (WeightedGraph<'static>, Vec<u32>, usize) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut rows: Vec<Vec<(u32, u64)>> = vec![Vec::new(); n];
        for _ in 0..edges {
            let v = rng.gen_range(0..n);
            let u = rng.gen_range(0..n as u32);
            rows[v].push((u, rng.gen_range(1..1000)));
        }
        let mut offsets = vec![0];
        let mut targets = Vec::new();
        let mut eweights = Vec::new();
        for row in &rows {
            for &(u, w) in row {
                targets.push(u);
                eweights.push(w);
            }
            offsets.push(targets.len());
        }
        let vweights = (0..n).map(|_| rng.gen_range(1..5)).collect();
        let g = WeightedGraph {
            offsets: Cow::Owned(offsets),
            targets: Cow::Owned(targets),
            eweights: Some(eweights),
            vweights,
        };
        let (map, cn) = random_map(n, max_class, &mut rng);
        (g, map, cn)
    }

    /// `contract` of `g` equals the sort-and-merge `contract_reference`
    /// of `reference`, a graph with the same neighbour stream.
    fn check_contract(
        g: &WeightedGraph<'_>,
        reference: &WeightedGraph<'_>,
        map: &[u32],
        cn: usize,
    ) {
        let fast = contract(g, map, cn);
        let slow = contract_reference(reference, map, cn);
        assert_eq!(fast.offsets, slow.offsets);
        assert_eq!(fast.targets, slow.targets);
        assert_eq!(fast.eweights, slow.eweights);
        assert_eq!(fast.vweights, slow.vweights);
    }

    /// How many rows of `coarse` (on `cn` vertices) `contract` emits by
    /// scanning the bitset, and how many of two or more targets it sorts.
    fn emission_paths(coarse: &WeightedGraph<'_>, cn: usize) -> (usize, usize) {
        let words = cn.div_ceil(64);
        let lens = coarse.offsets.windows(2).map(|w| w[1] - w[0]);
        let scanned = lens.clone().filter(|&l| scans_bitset(l, words)).count();
        let sorted = lens.filter(|&l| l >= 2 && !scans_bitset(l, words)).count();
        (scanned, sorted)
    }

    /// Few coarse ids and long rows: every row scans the bitset. Classes
    /// of up to four vertices share many edges.
    fn dense_instance(seed: u64) -> (WeightedGraph<'static>, Vec<u32>, usize) {
        random_instance(120, 120 * 24, 4, seed)
    }

    /// Many coarse ids and short rows: most rows sort.
    fn sparse_instance(seed: u64) -> (WeightedGraph<'static>, Vec<u32>, usize) {
        random_instance(20_000, 20_000 * 2, 2, seed)
    }

    /// An input-like unit-weight CSR and a coarsening map of it.
    fn unit_instance(n: usize, edges: usize, seed: u64) -> (CsrGraph, Vec<u32>, usize) {
        let g = erdos_renyi(n, edges, seed);
        let (map, cn) = random_map(n, 2, &mut StdRng::seed_from_u64(seed ^ 0x5eed));
        (g, map, cn)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Classes of one to four vertices: singletons, pairs, and
        /// classes whose members share edges that must vanish.
        #[test]
        fn contract_matches_sort_and_merge(
            n in 1usize..200,
            density in 0usize..8,
            max_class in 1usize..=4,
            seed in any::<u64>(),
        ) {
            let (g, map, cn) = random_instance(n, n * density, max_class, seed);
            check_contract(&g, &g, &map, cn);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        /// Both emission paths: a small `cn` whose rows scan the bitset,
        /// and a large `cn` whose rows sort.
        #[test]
        fn contract_matches_on_dense_and_sparse_rows(seed in any::<u64>()) {
            for (g, map, cn) in [dense_instance(seed), sparse_instance(seed)] {
                check_contract(&g, &g, &map, cn);
            }
        }

        /// The borrowed finest level, whose weights are an implicit 1,
        /// against an explicit all-ones copy of it.
        #[test]
        fn contract_of_borrowed_level_matches_all_ones_copy(
            n in 2usize..3000,
            density in 1usize..12,
            seed in any::<u64>(),
        ) {
            let (csr, map, cn) = unit_instance(n, n * density, seed);
            let borrowed = WeightedGraph::from_csr(&csr);
            prop_assert!(borrowed.eweights.is_none());
            let copy = WeightedGraph {
                offsets: Cow::Owned(csr.offsets().to_vec()),
                targets: Cow::Owned(csr.targets().to_vec()),
                eweights: Some(vec![1; csr.num_edges()]),
                vweights: vec![1; n],
            };
            check_contract(&borrowed, &copy, &map, cn);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// Random symmetric weighted graphs, parallel edges, self-loops
        /// and isolated vertices included, into 2, 3 and 8 parts.
        #[test]
        fn refine_matches_recounting_reference(
            n in 1usize..160,
            isolated in 0usize..8,
            density in 0usize..10,
            k_index in 0usize..3,
            tight in any::<bool>(),
            heavy in any::<bool>(),
            seed in any::<u64>(),
        ) {
            let max_edge_weight = if heavy { 1000 } else { 3 };
            let g = random_symmetric(n, isolated, n * density, max_edge_weight, seed);
            let k = [2, 3, 8][k_index];
            let (fast, slow, _) = refine_both(&g, k, tight, 8, seed);
            prop_assert_eq!(fast, slow);
        }
    }

    /// A borrowed input CSR whose rows hold self-loops: a mover's
    /// self-loop moves with it.
    #[test]
    fn refine_matches_reference_on_a_csr_with_self_loops() {
        for seed in 0..6 {
            let plain = erdos_renyi(400, 2400, seed);
            let mut offsets = vec![0];
            let mut targets = Vec::new();
            for v in 0..plain.num_vertices() as u32 {
                let row = plain.neighbors(v);
                let below = row.partition_point(|&u| u < v);
                targets.extend_from_slice(&row[..below]);
                if v % 3 == 0 {
                    targets.push(v);
                }
                targets.extend_from_slice(&row[below..]);
                offsets.push(targets.len());
            }
            let csr = CsrGraph::from_parts(offsets, targets);
            assert!(csr.is_symmetric());
            let g = WeightedGraph::from_csr(&csr);
            for k in [2, 3, 8] {
                for tight in [false, true] {
                    let (fast, slow, start) = refine_both(&g, k, tight, 8, seed);
                    assert_ne!(slow, start, "seed {seed}, k {k}: nothing moved");
                    assert_eq!(fast, slow, "seed {seed}, k {k}, tight {tight}");
                }
            }
            let p = kway(&csr, 4, seed);
            assert!(balance(&p, 4) <= DEFAULT_IMBALANCE + 0.02);
        }
    }

    /// The oracle's instances have teeth: vertices move in a pass after
    /// the first, so a row left stale by an earlier move would change a
    /// decision.
    #[test]
    fn refine_oracle_instances_move_after_the_first_pass() {
        let mut later = 0;
        for seed in 0..16 {
            let g = random_symmetric(120, 4, 120 * 6, 3, seed);
            let tight = seed % 2 == 0;
            let (_, once, _) = refine_both(&g, 3, tight, 1, seed);
            let (_, eight, _) = refine_both(&g, 3, tight, 8, seed);
            later += usize::from(once != eight);
        }
        assert!(later >= 8, "{later} of 16 instances move after pass 1");
    }

    /// The contract oracle's dense class maps hold singletons and classes
    /// with edges between their members.
    #[test]
    fn contract_instances_have_singletons_and_internal_edges() {
        for seed in 0..4 {
            let (g, map, cn) = dense_instance(seed);
            let members = classes(&map);
            assert_eq!(members.len(), cn);
            let singletons = members.iter().filter(|m| m.len() == 1).count();
            let internal = members
                .iter()
                .filter(|m| {
                    m.iter()
                        .any(|&v| g.neighbors(v).any(|(u, _)| u != v && m.contains(&u)))
                })
                .count();
            assert!(
                singletons > 5 && internal > 5,
                "seed {seed}: {singletons} singletons, {internal} classes with internal edges"
            );
        }
    }

    #[test]
    fn oracle_instances_take_both_emission_paths() {
        for seed in 0..4 {
            let (g, map, cn) = dense_instance(seed);
            let (scanned, _) = emission_paths(&contract_reference(&g, &map, cn), cn);
            assert!(scanned > cn / 2, "{scanned} of {cn} dense rows scan");
            let (g, map, cn) = sparse_instance(seed);
            let (_, sorted) = emission_paths(&contract_reference(&g, &map, cn), cn);
            assert!(sorted > cn / 2, "{sorted} of {cn} sparse rows sort");
            let (csr, map, cn) = unit_instance(2000, 2000 * 6, seed);
            let (scanned, sorted) = emission_paths(
                &contract_reference(&WeightedGraph::from_csr(&csr), &map, cn),
                cn,
            );
            assert!(
                scanned > 0 && sorted > 0,
                "{scanned} scanned, {sorted} sorted"
            );
        }
    }

    /// The map heavy-edge matching alone builds, with `coarsen`'s RNG
    /// draws: how `coarsen` matched before it gained two-hop matching.
    fn heavy_edge_map(g: &WeightedGraph<'_>, rng: &mut StdRng, max_vertex_weight: u64) -> Vec<u32> {
        let n = g.num_vertices();
        let mut order: Vec<u32> = (0..n as u32).collect();
        order.shuffle(rng);
        const UNMATCHED: u32 = u32::MAX;
        let mut map = vec![UNMATCHED; n];
        let mut next_coarse = 0u32;
        for &v in &order {
            if map[v as usize] != UNMATCHED {
                continue;
            }
            let mut best: Option<(u32, u64)> = None;
            for (u, w) in g.neighbors(v) {
                if map[u as usize] == UNMATCHED
                    && u != v
                    && g.vweights[v as usize] + g.vweights[u as usize] <= max_vertex_weight
                {
                    match best {
                        Some((_, bw)) if bw >= w => {}
                        _ => best = Some((u, w)),
                    }
                }
            }
            map[v as usize] = next_coarse;
            if let Some((u, _)) = best {
                map[u as usize] = next_coarse;
            }
            next_coarse += 1;
        }
        map
    }

    /// Vertex 0 joined to each of `leaves` leaves.
    fn star(leaves: usize) -> CsrGraph {
        let mut b = GraphBuilder::new(leaves + 1);
        for leaf in 1..=leaves as u32 {
            b.add_edge(0, leaf);
        }
        b.build_symmetric()
    }

    /// The members of each coarse vertex of `map`.
    fn classes(map: &[u32]) -> Vec<Vec<u32>> {
        let cn = map.iter().max().map_or(0, |&c| c as usize + 1);
        let mut members = vec![Vec::new(); cn];
        for (v, &c) in map.iter().enumerate() {
            members[c as usize].push(v as u32);
        }
        members
    }

    /// `match_heavy_edges` in the order `coarsen` shuffles with `seed`,
    /// numbered as `coarsen` numbers it, equals `heavy_edge_map`, which
    /// reads every edge of a row.
    fn check_matching(g: &WeightedGraph<'_>, cap: u64, seed: u64) {
        let n = g.num_vertices();
        let mut order: Vec<u32> = (0..n as u32).collect();
        order.shuffle(&mut StdRng::seed_from_u64(seed));
        let (map, _) = number_pairs(&order, &match_heavy_edges(g, &order, cap));
        assert_eq!(
            map,
            heavy_edge_map(g, &mut StdRng::seed_from_u64(seed), cap),
            "seed {seed}, cap {cap}"
        );
    }

    /// On the borrowed level 0 matching stops at the first eligible
    /// neighbour; on a weighted level it reads the whole row. Both give
    /// the oracle's map, with a loose cap and with a tight one over
    /// random vertex weights.
    #[test]
    fn matching_equals_the_heavy_edge_oracle() {
        for seed in 0..4 {
            for csr in [
                erdos_renyi(2000, 8000, seed),
                hub_attachment(3000, 15, 0.8, seed),
                dgcl_graph::Dataset::Reddit.generate(0.002, seed),
            ] {
                let mut g = WeightedGraph::from_csr(&csr);
                assert!(g.eweights.is_none());
                check_matching(&g, csr.num_vertices() as u64, seed);
                let mut rng = StdRng::seed_from_u64(seed);
                g.vweights = (0..csr.num_vertices())
                    .map(|_| rng.gen_range(1..5))
                    .collect();
                check_matching(&g, 5, seed);
            }
            let (g, _, _) = random_instance(500, 500 * 8, 2, seed);
            check_matching(&g, 5, seed);
            check_matching(&g, g.total_vweight(), seed);
        }
    }

    #[test]
    fn a_star_shrinks_by_two_fifths_per_level() {
        let csr = star(1000);
        let n = csr.num_vertices();
        let heavy_edge = heavy_edge_map(
            &WeightedGraph::from_csr(&csr),
            &mut StdRng::seed_from_u64(3),
            n as u64,
        );
        let classes_without = classes(&heavy_edge).len();
        assert!(
            classes_without as f64 > 0.95 * n as f64,
            "heavy-edge matching alone stalls: {classes_without} of {n}"
        );
        let mut rng = StdRng::seed_from_u64(3);
        let mut level = WeightedGraph::from_csr(&csr);
        let mut levels = 0;
        while level.num_vertices() > 16 {
            let (coarse, _) = coarsen(&level, &mut rng, n as u64);
            assert!(
                coarse.num_vertices() * 5 <= level.num_vertices() * 3,
                "level {levels}: {} -> {}",
                level.num_vertices(),
                coarse.num_vertices()
            );
            level = coarse;
            levels += 1;
        }
        assert!(levels >= 6, "{levels} levels");
    }

    #[test]
    fn two_hop_pairs_keep_the_weight_cap() {
        const CAP: u64 = 5;
        for seed in 0..8 {
            let csr = hub_attachment(3000, 15, 0.8, seed);
            let mut rng = StdRng::seed_from_u64(seed);
            let mut g = WeightedGraph::from_csr(&csr);
            g.vweights = (0..csr.num_vertices())
                .map(|_| rng.gen_range(1..5))
                .collect();
            let (coarse, map) = coarsen(&g, &mut rng, CAP);
            let mut two_hop_pairs = 0;
            for (c, members) in classes(&map).iter().enumerate() {
                let weight: u64 = members.iter().map(|&v| g.vweights[v as usize]).sum();
                assert_eq!(coarse.vweights[c], weight);
                match members[..] {
                    [_] => {}
                    [v, u] => {
                        assert!(weight <= CAP, "seed {seed}: {v} and {u} weigh {weight}");
                        if !csr.neighbors(v).contains(&u) {
                            two_hop_pairs += 1;
                        }
                    }
                    _ => panic!("seed {seed}: coarse vertex {c} has members {members:?}"),
                }
            }
            assert!(
                two_hop_pairs > 100,
                "seed {seed}: {two_hop_pairs} two-hop pairs"
            );
        }
    }

    #[test]
    fn below_the_threshold_the_map_is_heavy_edge_only() {
        for seed in 0..4 {
            let csr = erdos_renyi(2000, 8000, seed);
            let g = WeightedGraph::from_csr(&csr);
            let n = g.num_vertices();
            let cap = n as u64;
            let (_, map) = coarsen(&g, &mut StdRng::seed_from_u64(seed), cap);
            assert_eq!(
                map,
                heavy_edge_map(&g, &mut StdRng::seed_from_u64(seed), cap)
            );
            // The case has teeth: heavy-edge matching leaves some vertices
            // alone, under the threshold, and two-hop matching would pair
            // some of them.
            let mut order: Vec<u32> = (0..n as u32).collect();
            order.shuffle(&mut StdRng::seed_from_u64(seed));
            let mate = match_heavy_edges(&g, &order, cap);
            let alone = (0..n).filter(|&v| mate[v] as usize == v).count();
            assert!(
                alone > 0 && alone * TWO_HOP_UNMATCHED_SHARE <= n,
                "seed {seed}: {alone} alone"
            );
            let mut two_hop = mate.clone();
            match_two_hop(&g, &mut two_hop, cap);
            assert_ne!(two_hop, mate, "seed {seed}");
        }
    }

    #[test]
    fn two_cliques_split_cleanly() {
        // Two 4-cliques joined by one edge: the optimal 2-way cut is 2
        // directed edges.
        let mut b = GraphBuilder::new(8);
        for i in 0..4u32 {
            for j in (i + 1)..4 {
                b.add_edge(i, j);
                b.add_edge(i + 4, j + 4);
            }
        }
        b.add_edge(0, 4);
        let g = b.build_symmetric();
        let p = kway(&g, 2, 1);
        assert_eq!(edge_cut(&g, &p), 2);
        assert!((balance(&p, 2) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn respects_balance_bound() {
        let g = barabasi_albert(3000, 3, 7);
        for k in [2, 4, 8] {
            let p = kway(&g, k, 11);
            assert!(
                balance(&p, k) <= DEFAULT_IMBALANCE + 0.02,
                "k={k} balance {}",
                balance(&p, k)
            );
        }
    }

    #[test]
    fn beats_random_partitioning() {
        // Barabási–Albert graphs are expanders, so even METIS cannot cut
        // them cheaply; still, multilevel partitioning should clearly beat
        // a random assignment.
        let g = barabasi_albert(2000, 3, 3);
        let smart = edge_cut(&g, &kway(&g, 4, 5));
        let mut rng = StdRng::seed_from_u64(5);
        let uniform: Partition = (0..g.num_vertices())
            .map(|_| rng.gen_range(0..4usize) as u32)
            .collect();
        let random = edge_cut(&g, &uniform);
        assert!(
            (smart as f64) < 0.65 * random as f64,
            "cut {smart} not clearly below random {random}"
        );
    }

    #[test]
    fn single_part_is_all_zero() {
        let g = erdos_renyi(100, 300, 2);
        assert!(kway(&g, 1, 0).iter().all(|&p| p == 0));
    }

    #[test]
    fn deterministic_per_seed() {
        let g = erdos_renyi(500, 2000, 9);
        assert_eq!(kway(&g, 4, 42), kway(&g, 4, 42));
    }

    #[test]
    fn every_part_is_used() {
        let g = erdos_renyi(400, 1600, 8);
        let p = kway(&g, 8, 2);
        let mut seen = [false; 8];
        for &x in &p {
            seen[x as usize] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    #[should_panic(expected = "at least one part")]
    fn zero_parts_panics() {
        let g = erdos_renyi(10, 20, 0);
        let _ = kway(&g, 0, 0);
    }

    #[test]
    fn empty_graph_gives_empty_partition() {
        let g = dgcl_graph::CsrGraph::empty(0);
        assert!(kway(&g, 1, 0).is_empty());
    }
}
