//! Deterministic k-hop neighbor sampling for mini-batch training.
//!
//! DistDGL-style sampled training (PAPERS.md) replaces the full K-hop
//! closure with per-layer *fanout*-bounded neighborhoods: a batch of seed
//! vertices expands layer by layer into a chain of compact bipartite
//! [`LayerBlock`]s (message-flow graphs), each mapping a sorted global
//! destination set onto the sorted global source set feeding it.
//!
//! Everything here is **deterministic and replicable**: neighbor choices
//! are keyed per `(seed, layer, vertex)` by a splitmix64 stream, never by
//! global RNG state, so any rank — or any thread — can reconstruct any
//! other rank's sample without communication. That property is what lets
//! the distributed trainer compute halo-exchange row lists on both sides
//! of every link independently.
//!
//! A fanout of `None` means ∞: the block contains the full neighborhood
//! and the chain degenerates to the exact k-hop closure of the batch.

use crate::khop::GraphError;
use crate::{CsrGraph, VertexId};

const GOLDEN: u64 = 0x9E37_79B9_7F4A_7C15;

/// splitmix64 finalizer: a cheap, high-quality 64-bit mixer.
fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(GOLDEN);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// A tiny deterministic RNG stream (splitmix64), keyed so that every
/// `(seed, layer, vertex)` triple gets an independent stream.
struct SampleRng {
    state: u64,
}

impl SampleRng {
    fn for_vertex(seed: u64, layer: usize, v: VertexId) -> Self {
        Self {
            state: mix(seed ^ mix(((layer as u64 + 1) << 32) ^ u64::from(v))),
        }
    }

    fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(GOLDEN);
        mix(self.state)
    }

    /// A value in `0..bound` (`bound` > 0). The modulo bias is
    /// irrelevant here — only determinism matters.
    fn below(&mut self, bound: usize) -> usize {
        (self.next_u64() % bound as u64) as usize
    }
}

/// The per-batch round seed: decorrelates batches and epochs while
/// staying a pure function of `(seed, epoch, batch)`.
pub fn round_seed(seed: u64, epoch: usize, batch: usize) -> u64 {
    mix(seed ^ mix((epoch as u64) << 32 ^ batch as u64))
}

/// One bipartite sampled block: the adjacency from a sorted global
/// destination set to the sorted global source set feeding it.
///
/// Aggregating for `dst[i]` reads source rows `targets[offsets[i]..
/// offsets[i+1]]` (positions into `src`); the vertex's own input row sits
/// at `src[dst_pos[i]]`. `src` always contains every `dst` vertex, so a
/// layer's self-path input is available without a second fetch.
///
/// This is deliberately *not* a [`CsrGraph`]: the block is rectangular
/// (`targets` index `src` rows, of which there are more than `dst` rows),
/// which the square CSR invariants reject.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LayerBlock {
    /// Destination (output) vertices, global ids, sorted ascending.
    pub dst: Vec<VertexId>,
    /// Source (input) vertices, global ids, sorted ascending; a superset
    /// of `dst`.
    pub src: Vec<VertexId>,
    /// `dst_pos[i]` is the position of `dst[i]` within `src`.
    pub dst_pos: Vec<u32>,
    /// Row offsets into `targets`; `len == dst.len() + 1`.
    pub offsets: Vec<usize>,
    /// Sampled in-neighbors as positions into `src`, per row in the
    /// source graph's adjacency order.
    pub targets: Vec<u32>,
}

impl LayerBlock {
    /// Number of destination (output) rows.
    pub fn num_dst(&self) -> usize {
        self.dst.len()
    }

    /// Number of source (input) rows.
    pub fn num_src(&self) -> usize {
        self.src.len()
    }

    /// The sampled neighbors of destination row `i`, as positions into
    /// `src`.
    pub fn row(&self, i: usize) -> &[u32] {
        &self.targets[self.offsets[i]..self.offsets[i + 1]]
    }

    /// Total sampled edges in the block.
    pub fn num_edges(&self) -> usize {
        self.targets.len()
    }
}

/// Chooses the sampled neighbor *positions* (indices into `v`'s
/// adjacency list) for one vertex into `idx`: all of them when `fanout`
/// is `None` or the degree fits, otherwise a partial Fisher–Yates draw
/// of `f` distinct positions, emitted in ascending position order so the
/// surviving neighbors keep the adjacency list's order.
fn chosen_positions(deg: usize, fanout: Option<usize>, rng: &mut SampleRng, idx: &mut Vec<usize>) {
    idx.clear();
    idx.extend(0..deg);
    if let Some(f) = fanout {
        if deg > f {
            for i in 0..f {
                let j = i + rng.below(deg - i);
                idx.swap(i, j);
            }
            idx.truncate(f);
            idx.sort_unstable();
        }
    }
}

/// [`build_block`] into a recycled carcass: fills `block` in place
/// (every `Vec` is `clear()`ed, keeping its capacity) using `flat` /
/// `idx` as scratch. Identical output to a fresh build.
#[allow(clippy::too_many_arguments)]
fn build_block_into(
    graph: &CsrGraph,
    dst: &[VertexId],
    fanout: Option<usize>,
    seed: u64,
    layer: usize,
    block: &mut LayerBlock,
    flat: &mut Vec<VertexId>,
    idx: &mut Vec<usize>,
) -> Result<(), GraphError> {
    let n = graph.num_vertices();
    debug_assert!(dst.windows(2).all(|w| w[0] < w[1]), "dst sorted + deduped");
    block.offsets.clear();
    block.offsets.push(0usize);
    // Chosen neighbors by global id, flat, rows delimited by `offsets`.
    flat.clear();
    for &v in dst {
        if (v as usize) >= n {
            return Err(GraphError::SeedOutOfRange {
                seed: v,
                num_vertices: n,
            });
        }
        let neigh = graph.neighbors(v);
        let mut rng = SampleRng::for_vertex(seed, layer, v);
        chosen_positions(neigh.len(), fanout, &mut rng, idx);
        for &p in idx.iter() {
            flat.push(neigh[p]);
        }
        block.offsets.push(flat.len());
    }
    block.dst.clear();
    block.dst.extend_from_slice(dst);
    block.src.clear();
    block.src.extend_from_slice(dst);
    block.src.extend_from_slice(flat);
    block.src.sort_unstable();
    block.src.dedup();
    let LayerBlock {
        src,
        dst_pos,
        targets,
        ..
    } = block;
    let pos = |v: VertexId| src.binary_search(&v).expect("member of src") as u32;
    dst_pos.clear();
    dst_pos.extend(dst.iter().map(|&v| pos(v)));
    targets.clear();
    targets.extend(flat.iter().map(|&v| pos(v)));
    Ok(())
}

/// Builds the sampled block for one layer: `dst` (sorted, deduplicated
/// global ids) expands to its sampled in-neighborhood under `fanout`.
/// `seed` and `layer` key the per-vertex draws.
///
/// # Errors
///
/// [`GraphError::SeedOutOfRange`] if any `dst` vertex is out of range.
pub fn build_block(
    graph: &CsrGraph,
    dst: &[VertexId],
    fanout: Option<usize>,
    seed: u64,
    layer: usize,
) -> Result<LayerBlock, GraphError> {
    let mut block = LayerBlock::default();
    build_block_into(
        graph,
        dst,
        fanout,
        seed,
        layer,
        &mut block,
        &mut Vec::new(),
        &mut Vec::new(),
    )?;
    Ok(block)
}

/// Samples the full block chain for one batch: `fanouts.len()` layers,
/// returned in forward order (`blocks[0]` touches the raw features). The
/// chain invariant is `blocks[l].dst == blocks[l + 1].src`, and
/// `blocks.last().dst` is the sorted, deduplicated batch.
///
/// # Errors
///
/// [`GraphError::SeedOutOfRange`] if any seed is out of range.
pub fn sample_blocks(
    graph: &CsrGraph,
    seeds: &[VertexId],
    fanouts: &[Option<usize>],
    seed: u64,
) -> Result<Vec<LayerBlock>, GraphError> {
    let n = graph.num_vertices();
    let mut dst: Vec<VertexId> = seeds.to_vec();
    dst.sort_unstable();
    dst.dedup();
    if let Some(&bad) = dst.iter().find(|&&v| (v as usize) >= n) {
        return Err(GraphError::SeedOutOfRange {
            seed: bad,
            num_vertices: n,
        });
    }
    let mut rev: Vec<LayerBlock> = Vec::with_capacity(fanouts.len());
    for layer in (0..fanouts.len()).rev() {
        let block = build_block(graph, &dst, fanouts[layer], seed, layer)?;
        dst = block.src.clone();
        rev.push(block);
    }
    rev.reverse();
    Ok(rev)
}

/// Recycles per-batch sampling allocations across batches: finished
/// chains return their block carcasses (every `Vec` keeps its capacity)
/// and the pool's internal scratch is reused, so a warm pool samples a
/// steady-state batch with **zero** heap allocations — pinned by the
/// counting-allocator regression test in `dgcl-core`.
#[derive(Debug, Default)]
pub struct BlockPool {
    /// Spare block carcasses, fields cleared but capacity retained.
    spares: Vec<LayerBlock>,
    /// Spare chain containers.
    chains: Vec<Vec<LayerBlock>>,
    dst: Vec<VertexId>,
    flat: Vec<VertexId>,
    idx: Vec<usize>,
}

impl BlockPool {
    /// An empty pool.
    pub fn new() -> Self {
        Self::default()
    }

    /// Returns a finished chain — blocks and container alike — to the
    /// pool for the next batch.
    pub fn recycle(&mut self, mut chain: Vec<LayerBlock>) {
        self.spares.append(&mut chain);
        self.chains.push(chain);
    }

    /// [`sample_blocks`] drawing every allocation from the pool:
    /// identical output, but a warm pool (after [`BlockPool::recycle`])
    /// allocates nothing.
    ///
    /// # Errors
    ///
    /// [`GraphError::SeedOutOfRange`] if any seed is out of range.
    pub fn sample_blocks(
        &mut self,
        graph: &CsrGraph,
        seeds: &[VertexId],
        fanouts: &[Option<usize>],
        seed: u64,
    ) -> Result<Vec<LayerBlock>, GraphError> {
        self.load_seeds(graph, seeds)?;
        let mut chain = self.chains.pop().unwrap_or_default();
        debug_assert!(chain.is_empty(), "recycled chains come back empty");
        for layer in (0..fanouts.len()).rev() {
            let mut block = self.spares.pop().unwrap_or_default();
            if let Err(e) = build_block_into(
                graph,
                &self.dst,
                fanouts[layer],
                seed,
                layer,
                &mut block,
                &mut self.flat,
                &mut self.idx,
            ) {
                chain.push(block);
                self.recycle(chain);
                return Err(e);
            }
            self.dst.clear();
            self.dst.extend_from_slice(&block.src);
            chain.push(block);
        }
        chain.reverse();
        Ok(chain)
    }

    /// The input rows of the chain [`BlockPool::sample_blocks`] would
    /// build — its `blocks[0].src`, or the sorted seeds when `fanouts` is
    /// empty — restricted to those `keep` accepts, into `out`
    /// (ascending). The frontier expands layer by layer with the chain's
    /// own draws, but no block is built: no offsets, no targets, no
    /// position lookups, and the last expansion collects only the rows
    /// `keep` accepts. A warm pool allocates nothing; `out` keeps its
    /// capacity.
    ///
    /// # Errors
    ///
    /// [`GraphError::SeedOutOfRange`] if any seed is out of range, as
    /// [`BlockPool::sample_blocks`] reports it.
    pub fn sample_sources(
        &mut self,
        graph: &CsrGraph,
        seeds: &[VertexId],
        fanouts: &[Option<usize>],
        seed: u64,
        keep: impl Fn(VertexId) -> bool,
        out: &mut Vec<VertexId>,
    ) -> Result<(), GraphError> {
        self.load_seeds(graph, seeds)?;
        out.clear();
        let Self { dst, flat, idx, .. } = self;
        if fanouts.is_empty() {
            out.extend(dst.iter().copied().filter(|&v| keep(v)));
        }
        for layer in (0..fanouts.len()).rev() {
            // A layer's sources are its destinations and their draws.
            let next = if layer == 0 { &mut *out } else { &mut *flat };
            let kept = |v: VertexId| layer > 0 || keep(v);
            next.clear();
            for &v in dst.iter() {
                if kept(v) {
                    next.push(v);
                }
                let neigh = graph.neighbors(v);
                let mut rng = SampleRng::for_vertex(seed, layer, v);
                chosen_positions(neigh.len(), fanouts[layer], &mut rng, idx);
                next.extend(idx.iter().map(|&p| neigh[p]).filter(|&u| kept(u)));
            }
            next.sort_unstable();
            next.dedup();
            if layer > 0 {
                std::mem::swap(dst, flat);
            }
        }
        Ok(())
    }

    /// Loads the sorted, deduplicated `seeds` into the frontier.
    fn load_seeds(&mut self, graph: &CsrGraph, seeds: &[VertexId]) -> Result<(), GraphError> {
        let n = graph.num_vertices();
        self.dst.clear();
        self.dst.extend_from_slice(seeds);
        self.dst.sort_unstable();
        self.dst.dedup();
        match self.dst.iter().find(|&&v| (v as usize) >= n) {
            Some(&bad) => Err(GraphError::SeedOutOfRange {
                seed: bad,
                num_vertices: n,
            }),
            None => Ok(()),
        }
    }
}

/// Splits `seeds` into deterministic mini-batches for one epoch: a
/// Fisher–Yates shuffle keyed by `(seed, epoch)`, chunked into
/// `batch_size` pieces (the last may be short). `batch_size == 0` is
/// treated as one batch of everything.
pub fn seed_batches(
    seeds: &[VertexId],
    batch_size: usize,
    seed: u64,
    epoch: usize,
) -> Vec<Vec<VertexId>> {
    let mut order: Vec<VertexId> = seeds.to_vec();
    let mut rng = SampleRng {
        state: mix(seed ^ mix(0xBA7C_0000 ^ epoch as u64)),
    };
    for i in (1..order.len()).rev() {
        let j = rng.below(i + 1);
        order.swap(i, j);
    }
    let size = if batch_size == 0 {
        order.len().max(1)
    } else {
        batch_size
    };
    order.chunks(size).map(<[VertexId]>::to_vec).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::hub_attachment;
    use crate::khop::k_hop_closure_sparse;
    use proptest::prelude::*;

    fn graph() -> CsrGraph {
        hub_attachment(500, 10, 0.8, 3)
    }

    #[test]
    fn infinite_fanout_is_the_exact_closure() {
        let g = graph();
        let seeds = [3, 77, 410];
        let blocks = sample_blocks(&g, &seeds, &[None, None], 9).unwrap();
        assert_eq!(blocks.len(), 2);
        assert_eq!(blocks[1].dst, vec![3, 77, 410]);
        // Block src sets walk the exact 1- and 2-hop closures.
        let hop1 = k_hop_closure_sparse(&g, &seeds, 1).unwrap();
        let hop2 = k_hop_closure_sparse(&g, &seeds, 2).unwrap();
        assert_eq!(blocks[1].src, hop1.visited());
        assert_eq!(blocks[0].src, hop2.visited());
        // Every row carries the full neighborhood, in adjacency order.
        for (i, &v) in blocks[1].dst.iter().enumerate() {
            let row: Vec<VertexId> = blocks[1]
                .row(i)
                .iter()
                .map(|&t| blocks[1].src[t as usize])
                .collect();
            assert_eq!(row, g.neighbors(v), "vertex {v}");
        }
    }

    #[test]
    fn chain_invariant_holds() {
        let g = graph();
        let blocks = sample_blocks(&g, &[5, 9, 200], &[Some(3), Some(2), None], 4).unwrap();
        for l in 0..blocks.len() - 1 {
            assert_eq!(blocks[l].dst, blocks[l + 1].src, "layer {l}");
        }
        for b in &blocks {
            for (i, &v) in b.dst.iter().enumerate() {
                assert_eq!(b.src[b.dst_pos[i] as usize], v);
            }
        }
    }

    #[test]
    fn fanout_bounds_row_length() {
        let g = graph();
        let b = build_block(&g, &[0, 1, 2, 3], Some(2), 7, 0).unwrap();
        for i in 0..b.num_dst() {
            let deg = g.out_degree(b.dst[i]);
            assert!(b.row(i).len() <= 2);
            assert_eq!(b.row(i).len(), deg.min(2), "vertex {}", b.dst[i]);
        }
    }

    #[test]
    fn sampling_is_deterministic_across_threads() {
        let g = std::sync::Arc::new(graph());
        let seeds: Vec<VertexId> = (0..50).map(|i| i * 7 % 500).collect();
        let reference = sample_blocks(&g, &seeds, &[Some(4), Some(3)], 123).unwrap();
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let g = g.clone();
                let seeds = seeds.clone();
                std::thread::spawn(move || sample_blocks(&g, &seeds, &[Some(4), Some(3)], 123))
            })
            .collect();
        for h in handles {
            assert_eq!(h.join().unwrap().unwrap(), reference);
        }
    }

    #[test]
    fn different_seeds_differ() {
        let g = graph();
        let a = sample_blocks(&g, &[0, 1, 2, 3, 4], &[Some(2)], 1).unwrap();
        let b = sample_blocks(&g, &[0, 1, 2, 3, 4], &[Some(2)], 2).unwrap();
        assert_ne!(a, b, "distinct seeds should draw distinct samples");
    }

    #[test]
    fn pooled_sampling_matches_plain() {
        let g = graph();
        let seeds: Vec<VertexId> = (0..40).map(|i| i * 11 % 500).collect();
        let mut pool = BlockPool::new();
        for round in 0u64..3 {
            let plain = sample_blocks(&g, &seeds, &[Some(4), Some(3)], 100 + round).unwrap();
            let pooled = pool
                .sample_blocks(&g, &seeds, &[Some(4), Some(3)], 100 + round)
                .unwrap();
            assert_eq!(pooled, plain, "round {round}");
            pool.recycle(pooled);
        }
    }

    #[test]
    fn pooled_bad_seed_is_typed() {
        let g = graph();
        let mut pool = BlockPool::new();
        let err = pool
            .sample_blocks(&g, &[1, 5000], &[Some(2)], 0)
            .unwrap_err();
        assert_eq!(
            err,
            GraphError::SeedOutOfRange {
                seed: 5000,
                num_vertices: 500
            }
        );
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The walk is the chain's input rows, filtered: with every row
        /// kept it is exactly `blocks[0].src`; with an owner filter it is
        /// that list's owned rows, in order.
        #[test]
        fn source_walk_is_the_filtered_chain_input(
            graph_seed in 0u64..8,
            seeds in collection::vec(0u32..300, 0..40),
            // 0 draws `None`, an unbounded layer.
            fanouts in collection::vec((0usize..6).prop_map(|f| (f > 0).then_some(f)), 1..4),
            round in 0u64..1_000,
            parts in 1u32..5,
        ) {
            let g = hub_attachment(300, 6, 0.8, graph_seed);
            let chain = sample_blocks(&g, &seeds, &fanouts, round).unwrap();
            let mut pool = BlockPool::new();
            let mut out = vec![7; 3];
            pool.sample_sources(&g, &seeds, &fanouts, round, |_| true, &mut out).unwrap();
            prop_assert_eq!(&out, &chain[0].src);
            for part in 0..parts {
                let owned = |v: VertexId| (v * 7 + 3) % parts == part;
                pool.sample_sources(&g, &seeds, &fanouts, round, owned, &mut out).unwrap();
                let expected: Vec<VertexId> =
                    chain[0].src.iter().copied().filter(|&v| owned(v)).collect();
                prop_assert_eq!(&out, &expected, "part {}/{}", part, parts);
            }
        }
    }

    #[test]
    fn source_walk_without_layers_is_the_kept_seeds() {
        let g = graph();
        let mut pool = BlockPool::new();
        let mut out = Vec::new();
        pool.sample_sources(&g, &[9, 4, 9, 6], &[], 1, |v| v != 6, &mut out)
            .unwrap();
        assert_eq!(out, vec![4, 9]);
    }

    #[test]
    fn source_walk_bad_seed_is_the_chains_error() {
        let g = graph();
        let mut pool = BlockPool::new();
        let mut out = Vec::new();
        for fanouts in [&[Some(2)][..], &[None, Some(3)], &[]] {
            let seeds = [1, 7_000, 5_000];
            let walk = pool.sample_sources(&g, &seeds, fanouts, 0, |_| true, &mut out);
            let chain = sample_blocks(&g, &seeds, fanouts, 0);
            assert_eq!(walk.unwrap_err(), chain.unwrap_err(), "{fanouts:?}");
        }
    }

    #[test]
    fn bad_seed_is_typed() {
        let g = graph();
        let err = sample_blocks(&g, &[1, 5000], &[Some(2)], 0).unwrap_err();
        assert_eq!(
            err,
            GraphError::SeedOutOfRange {
                seed: 5000,
                num_vertices: 500
            }
        );
    }

    #[test]
    fn batches_partition_the_seed_set() {
        let seeds: Vec<VertexId> = (0..103).collect();
        let batches = seed_batches(&seeds, 10, 42, 1);
        assert_eq!(batches.len(), 11);
        assert!(batches[..10].iter().all(|b| b.len() == 10));
        assert_eq!(batches[10].len(), 3);
        let mut all: Vec<VertexId> = batches.concat();
        all.sort_unstable();
        assert_eq!(all, seeds);
        assert_eq!(batches, seed_batches(&seeds, 10, 42, 1), "deterministic");
        assert_ne!(batches, seed_batches(&seeds, 10, 42, 2), "epochs reshuffle");
    }

    #[test]
    fn zero_batch_size_is_one_batch() {
        let seeds: Vec<VertexId> = (0..7).collect();
        let batches = seed_batches(&seeds, 0, 1, 0);
        assert_eq!(batches.len(), 1);
        assert_eq!(batches[0].len(), 7);
    }

    #[test]
    fn round_seed_decorrelates() {
        assert_ne!(round_seed(1, 0, 0), round_seed(1, 0, 1));
        assert_ne!(round_seed(1, 0, 0), round_seed(1, 1, 0));
        assert_ne!(round_seed(1, 0, 0), round_seed(2, 0, 0));
    }
}
