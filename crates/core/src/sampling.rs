//! Mini-batch sampled training: distributed execution of the
//! [`dgcl_graph::sample`] block chain.
//!
//! Full-batch training moves every remote embedding every epoch; sampled
//! training (DistDGL, PAPERS.md) moves only the rows a batch's fanout-
//! bounded blocks actually reference. The pieces here:
//!
//! * [`SamplingConfig`] — batch size, per-layer fanouts, seed, seed set.
//! * `owner_split` + [`GatherPlan`] — the batch-sized analogue of the
//!   graph allgather: every rank requests one ascending row list, every
//!   row is served by its owner, and who sends what to whom is derived on
//!   both ends of every message from shared knowledge. A plan carries a
//!   one-stage [`PipelineSchedule::exchange`] and runs on the one
//!   executor ([`crate::pipeline`]), so the poison protocol, every fault
//!   of the injector and the fabric's recycle pool apply.
//! * `BlockSteps` — the trainer's **sampled-blocks** step kind (finite
//!   fanouts): each rank trains on the batch seeds it owns — its own
//!   block chain, one feature fetch, every layer local, one gradient
//!   allreduce, all on the rank's own thread. This module moves rows; the
//!   compute over a chain ([`dgcl_gnn::forward_chain`], block
//!   aggregation and its adjoint) is `dgcl_gnn`'s, and a serving flush
//!   runs the same walk. With all fanouts ∞ the trainer
//!   instead runs its full-neighbourhood step with the loss masked to
//!   the batch; one batch covering every vertex is then *bitwise
//!   identical* to full-batch training — the parity criterion the test
//!   suite enforces.
//!
//! Determinism: samples are pure functions of `(seed, epoch, batch)` and
//! the seeds, so every rank reconstructs what each peer's chain reads of
//! its rows without communication; row exchanges assemble in
//! ascending rank order and the allreduce folds gradients in ascending
//! rank order; and resumed runs replay the same batches from the
//! checkpoint epoch.

use dgcl_gnn::aggregate::block_aggregate_backward;
use dgcl_gnn::{forward_chain, GnnNetwork};
use dgcl_graph::khop::GraphError;
use dgcl_graph::sample::{round_seed, BlockPool, LayerBlock};
use dgcl_graph::{CsrGraph, VertexId};
use dgcl_tensor::Matrix;

use crate::error::RuntimeError;
use crate::fabric::Fabric;
use crate::featcache::{AscendingWalk, ClusterCache, FeatureCache};
use crate::pipeline::{self, ChunkIo, PipelineSchedule, PipelineScratch};
use crate::runtime::DeviceHandle;
use crate::trainer::{input_learns, sync_step, EpochCtx};

/// How the trainer samples mini-batches. Attach to
/// [`crate::trainer::TrainConfig::sampling`] to switch the trainer from
/// full-batch epochs to sampled mini-batch epochs.
#[derive(Debug, Clone)]
pub struct SamplingConfig {
    /// Seeds per mini-batch; `0` means one batch of the whole seed set.
    pub batch_size: usize,
    /// Per-layer fanout, input-closest layer first; `None` = ∞ (the
    /// full neighborhood). Length must equal the network's layer count.
    pub fanouts: Vec<Option<usize>>,
    /// Seed for batch shuffling and neighbor draws; identical across
    /// ranks by construction (it lives in the shared config).
    pub seed: u64,
    /// The training seed set; `None` means every vertex. Out-of-range
    /// ids surface as a typed [`RuntimeError::Protocol`] through
    /// `run_cluster`, never as a rank-thread abort.
    pub train_vertices: Option<Vec<VertexId>>,
}

impl SamplingConfig {
    /// A sampled config with the given batch size and per-layer fanouts,
    /// a fixed seed and every vertex a training seed.
    pub fn new(batch_size: usize, fanouts: Vec<Option<usize>>) -> Self {
        Self {
            batch_size,
            fanouts,
            seed: 0x5EED,
            train_vertices: None,
        }
    }

    /// An exact (fanout = ∞ on every layer) config: mini-batched in the
    /// loss only, reproducing full-batch numerics when one batch covers
    /// the whole seed set.
    pub fn exact(batch_size: usize, layers: usize) -> Self {
        Self::new(batch_size, vec![None; layers])
    }

    /// Whether every fanout is ∞ (the trainer then runs full-neighbourhood
    /// steps with a masked loss instead of sampled blocks).
    pub(crate) fn is_exact(&self) -> bool {
        self.fanouts.iter().all(Option::is_none)
    }
}

/// Maps a sampler [`GraphError`] onto the runtime's typed error space so
/// a bad batch unwinds through the poison protocol like any other
/// protocol violation.
pub(crate) fn graph_err(rank: usize, e: &GraphError) -> RuntimeError {
    RuntimeError::Protocol {
        rank,
        detail: format!("sampler: {e}"),
    }
}

/// The owner split of one strictly ascending global row list (a batch's
/// seeds, or a request list): the ascending list positions rank `r` owns,
/// as `split[r]`. Every rank derives the same split of the same list from
/// the shared partition, so it names who serves whom without negotiation.
///
/// # Panics
///
/// Panics unless `rows` is strictly ascending.
pub(crate) fn owner_split(
    rows: &[VertexId],
    partition: &[u32],
    num_parts: usize,
) -> Vec<Vec<usize>> {
    // A balanced partition gives every rank about an equal share.
    let share = rows.len() / num_parts + 1;
    let mut split: Vec<_> = (0..num_parts).map(|_| Vec::with_capacity(share)).collect();
    for (i, &v) in rows.iter().enumerate() {
        assert!(i == 0 || rows[i - 1] < v, "rows must be strictly ascending");
        split[partition[v as usize] as usize].push(i);
    }
    split
}

/// For each ascending vertex of `rows`, the row of `have` (ascending
/// global ids, the rows a rank's local matrices hold) that backs it.
fn local_rows<'a>(
    have: &'a [VertexId],
    rows: impl Iterator<Item = VertexId> + 'a,
) -> impl Iterator<Item = usize> + 'a {
    let mut walk = AscendingWalk::new(have);
    rows.map(move |v| walk.find(v).expect("owner holds its rows"))
}

/// Appends to `wire` the message between one requester and one owner: of
/// the ascending positions `owned` of `rows` that the owner owns, those
/// the requester's cache lacks, in order; `hit(position, cache row)` sees
/// the rest. The receiver passes its list and one entry of its
/// [`owner_split`], the sender the rows of that list it owns: the same
/// rows in the same order — lists, partition and cache sets are shared
/// knowledge — so a message carries exactly the rows its receiver expects.
fn wire_rows(
    rows: &[VertexId],
    owned: impl IntoIterator<Item = usize>,
    cache: Option<&FeatureCache>,
    wire: &mut Vec<usize>,
    mut hit: impl FnMut(usize, usize),
) {
    let Some(cache) = cache else {
        wire.extend(owned);
        return;
    };
    let mut walk = AscendingWalk::new(&cache.ids);
    for p in owned {
        match walk.find(rows[p]) {
            Some(ci) => hit(p, ci),
            None => wire.push(p),
        }
    }
}

/// One rank's view of a row exchange: every rank requests one strictly
/// ascending global row list and receives its matrix, output position `i`
/// *being* row `i` of its list, each row served by its owner. Every rank
/// derives the rows of each peer's list it owns from shared knowledge (the
/// batch, the sampler's seed, the partition), so sends and receives pair
/// up without negotiation: a message carries the rows of the receiver's
/// list its sender owns, in list order, minus those in the receiver's
/// [`ClusterCache`] (cache sets are shared knowledge too). Those never
/// cross the wire: the requester embeds their values — and its own rows —
/// in its plan at build time, as it embeds the rows it sends, so
/// [`DeviceHandle::exchange_rows`] needs nothing but the plan.
#[derive(Debug, PartialEq)]
pub struct GatherPlan {
    /// The output with this rank's own and cache-served rows in place;
    /// the rows a peer's message fills are still zero.
    base: Matrix,
    /// The rows this rank sends, every peer's in ascending peer order; a
    /// send action's `rows` index it.
    sends: Matrix,
    /// The output positions the messages fill, in wire order, every
    /// peer's in ascending peer order; a receive action's `rows` index
    /// it.
    positions: Vec<usize>,
    /// The one-stage schedule of the exchange.
    exchange: PipelineSchedule,
}

impl GatherPlan {
    /// Builds the plan of the exchange in which *every* rank assembles
    /// `rows` (global ids, strictly ascending — a [`LayerBlock`]'s `src`
    /// or `dst` list) against the cluster's feature cache: rows in this
    /// rank's cache are served locally (values embedded in the plan), and
    /// sends skip rows resident in each receiver's cache. `have` lists
    /// the global ids backing `values`' rows (ascending); it must contain
    /// every row of `rows` this rank owns. Bumps this rank's
    /// [`CacheStats`](crate::featcache::CacheStats) with the exchange's
    /// hit/miss rows.
    ///
    /// # Panics
    ///
    /// Panics if `rows` is unsorted or repeats a row, or if `have` lacks
    /// a row of `rows` this rank owns.
    pub fn build_cached(
        rows: &[VertexId],
        partition: &[u32],
        num_parts: usize,
        rank: usize,
        have: &[VertexId],
        values: &Matrix,
        cache: &ClusterCache,
    ) -> Self {
        let split = owner_split(rows, partition, num_parts);
        let owned: Vec<VertexId> = split[rank].iter().map(|&p| rows[p]).collect();
        let owed = vec![&owned[..]; num_parts];
        Self::for_requests(rows, &split, &owed, rank, have, values, Some(cache))
    }

    /// The plan of the exchange in which this rank requests `rows`
    /// (strictly ascending; `split` is its [`owner_split`]) and each peer
    /// `q` reads `owed[q]` from it: the ascending rows of `q`'s list that
    /// this rank owns (`owed[rank]` is not read). This is the one body;
    /// [`GatherPlan::build_cached`] is the case of `P` equal lists.
    pub(crate) fn for_requests(
        rows: &[VertexId],
        split: &[Vec<usize>],
        owed: &[impl AsRef<[VertexId]>],
        rank: usize,
        have: &[VertexId],
        values: &Matrix,
        cache: Option<&ClusterCache>,
    ) -> Self {
        let peers = || (0..owed.len()).filter(move |&peer| peer != rank);
        // Receives: each owner's rows of this rank's list, minus the
        // ones this rank's cache serves.
        let mut base = Matrix::zeros(rows.len(), values.cols());
        let own = local_rows(have, split[rank].iter().map(|&p| rows[p]));
        for (&p, r) in split[rank].iter().zip(own) {
            base.set_row(p, values.row(r));
        }
        let mine = cache.map(|c| &c.caches[rank]);
        let mut hits = 0;
        let mut positions = Vec::with_capacity(rows.len() - split[rank].len());
        let recvs: Vec<_> = peers()
            .map(|peer| {
                let start = positions.len();
                let owned = split[peer].iter().copied();
                wire_rows(rows, owned, mine, &mut positions, |p, ci| {
                    base.set_row(p, mine.expect("a hit has a cache").rows.row(ci));
                    hits += 1;
                });
                (peer, start..positions.len())
            })
            .collect();
        if let Some(m) = mine {
            m.stats.record(hits, positions.len() as u64, values.cols());
        }
        // Sends: the mirror image — this rank's rows of each peer's
        // list, minus the ones that peer's cache serves.
        let owed = |peer: usize| owed[peer].as_ref();
        let mut wire = Vec::with_capacity(peers().map(|q| owed(q).len()).max().unwrap_or(0));
        let mut sent = Vec::with_capacity(peers().map(|q| owed(q).len()).sum());
        let sends: Vec<_> = peers()
            .map(|peer| {
                let rows = owed(peer);
                let theirs = cache.map(|c| &c.caches[peer]);
                wire.clear();
                wire_rows(rows, 0..rows.len(), theirs, &mut wire, |_, _| {});
                let start = sent.len();
                sent.extend(local_rows(have, wire.iter().map(|&p| rows[p])));
                (peer, start..sent.len())
            })
            .collect();
        Self {
            base,
            sends: values.gather_rows(&sent),
            positions,
            exchange: PipelineSchedule::exchange(&sends, &recvs),
        }
    }

    /// Runs the exchange under a pre-assigned op on the one executor:
    /// posts each peer its rows and fills the plan's output (own and
    /// cache-served rows already in place) from each peer's message.
    pub(crate) fn execute(
        &self,
        fabric: &Fabric,
        rank: usize,
        op: u64,
        scratch: &mut PipelineScratch,
    ) -> Result<Matrix, RuntimeError> {
        let mut out = self.base.clone();
        let cols = out.cols();
        pipeline::execute(
            fabric,
            rank,
            op,
            &self.exchange,
            cols,
            scratch,
            |req| match req {
                ChunkIo::Pack { rows, payload, .. } => {
                    payload.extend_from_slice(
                        &self.sends.as_slice()[rows.start * cols..rows.end * cols],
                    );
                }
                ChunkIo::Apply { rows, payload, .. } => {
                    for (i, &p) in self.positions[rows].iter().enumerate() {
                        out.set_row(p, &payload[i * cols..(i + 1) * cols]);
                    }
                }
            },
        )?;
        Ok(out)
    }
}

/// The training seed set: the configured subset, or every vertex.
pub(crate) fn train_set(scfg: &SamplingConfig, graph: &CsrGraph) -> Vec<VertexId> {
    match &scfg.train_vertices {
        Some(v) => v.clone(),
        None => (0..graph.num_vertices() as VertexId).collect(),
    }
}

/// The sampled-blocks step kind of [`crate::trainer`]'s device body,
/// trainer-local: a rank takes the batch seeds it owns, samples *their*
/// block chain, fetches the chain's input rows from their owners in one
/// exchange, runs every layer forward and backward on its own compact
/// blocks and meets its peers again only in the gradient allreduce — two
/// collectives per step whatever the depth. A rank that owns none of a
/// batch's seeds still serves its rows and joins the allreduce with zero
/// gradients and zero loss. Holds what outlives a step: the rank's own
/// feature and target rows, the recycle pool for block-chain scratch, the
/// seed scratch and, per peer, the rows this rank serves it.
pub(crate) struct BlockSteps<'a> {
    handle: &'a DeviceHandle<'a>,
    ctx: &'a EpochCtx<'a>,
    scfg: &'a SamplingConfig,
    features: &'a Matrix,
    targets: &'a Matrix,
    pool: BlockPool,
    seeds: Vec<VertexId>,
    owed: Vec<Vec<VertexId>>,
}

impl<'a> BlockSteps<'a> {
    pub(crate) fn new(
        handle: &'a DeviceHandle<'a>,
        ctx: &'a EpochCtx<'a>,
        scfg: &'a SamplingConfig,
        features: &'a Matrix,
        targets: &'a Matrix,
    ) -> Self {
        Self {
            handle,
            ctx,
            scfg,
            features,
            targets,
            pool: BlockPool::new(),
            seeds: Vec::new(),
            owed: vec![Vec::new(); handle.comm_info().pg.num_parts],
        }
    }

    /// This rank's block chain of batch `bi` and the plan of its feature
    /// fetch. The batch's seeds split by owner, and each owner's chain is a
    /// pure function of `(seed, epoch, batch)` and its seeds. This rank
    /// samples its own chain in full; of each peer's chain it walks only
    /// the input rows (`blocks[0].src`) it owns — what it serves that peer,
    /// learnt the way the peer learns it, without a message. A bad seed
    /// unwinds through the poison protocol.
    fn sample(
        &mut self,
        epoch: usize,
        batches: &[Vec<VertexId>],
        bi: usize,
    ) -> Result<(Vec<LayerBlock>, GatherPlan), RuntimeError> {
        let (rank, pg) = (self.handle.rank, &self.handle.comm_info().pg);
        let (graph, fanouts) = (self.ctx.graph, &self.scfg.fanouts[..]);
        let round = round_seed(self.scfg.seed, epoch, bi);
        let owner = |v: VertexId| pg.partition[v as usize] as usize;
        // The pool sorts and dedups each owner's seeds, as one sort of the
        // batch would.
        let seeds_of = |q: usize, seeds: &mut Vec<VertexId>| {
            seeds.clear();
            seeds.extend(batches[bi].iter().copied().filter(|&v| owner(v) == q));
        };
        seeds_of(rank, &mut self.seeds);
        let chain = self.pool.sample_blocks(graph, &self.seeds, fanouts, round);
        let mine = self
            .handle
            .poison_on_err(chain.map_err(|e| graph_err(rank, &e)))?;
        for peer in (0..pg.num_parts).filter(|&q| q != rank) {
            seeds_of(peer, &mut self.seeds);
            let keep = |v: VertexId| owner(v) == rank;
            let out = &mut self.owed[peer];
            let walk = self
                .pool
                .sample_sources(graph, &self.seeds, fanouts, round, keep, out);
            self.handle
                .poison_on_err(walk.map_err(|e| graph_err(rank, &e)))?;
        }
        let split = owner_split(&mine[0].src, &pg.partition, pg.num_parts);
        let plan = GatherPlan::for_requests(
            &mine[0].src,
            &split,
            &self.owed,
            rank,
            &pg.local[rank],
            self.features,
            self.ctx.cache,
        );
        Ok((mine, plan))
    }

    /// Sampling, feature fetch, forward, loss, backward and [`sync_step`]
    /// of batch `bi`; returns the cluster-summed loss.
    pub(crate) fn step(
        &mut self,
        net: &mut GnnNetwork,
        epoch: usize,
        batches: &[Vec<VertexId>],
        bi: usize,
    ) -> Result<f32, RuntimeError> {
        let handle = self.handle;
        let rank = handle.rank;
        let (blocks, plan) = self.sample(epoch, batches, bi)?;
        let h = handle.exchange_rows(&plan)?;
        let out = forward_chain(net.layers_mut(), &blocks, h);
        // Loss over this rank's seeds, which it owns.
        let seeds = blocks.last().expect("≥ 1 layer").dst.iter().copied();
        let target_rows: Vec<usize> =
            local_rows(&handle.comm_info().pg.local[rank], seeds).collect();
        let diff = out.sub(&self.targets.gather_rows(&target_rows));
        let local_loss = 0.5 * diff.norm_sq();
        // Backward down the same chain: scatter each layer's aggregate
        // gradient over its block's edges, fold the self-path onto the
        // rows it came from.
        let mut grad = diff;
        for (l, block) in blocks.iter().enumerate().rev() {
            let layer = &mut net.layers_mut()[l];
            if input_learns(l) {
                let (grad_agg, direct) = layer.backward_agg(&grad);
                grad = block_aggregate_backward(layer.arch().agg_kind(), block, grad_agg);
                if let Some(direct) = direct {
                    for (i, &p) in block.dst_pos.iter().enumerate() {
                        for (o, &g) in grad.row_mut(p as usize).iter_mut().zip(direct.row(i)) {
                            *o += g;
                        }
                    }
                }
            } else {
                layer.backward_params(&grad);
            }
        }
        self.pool.recycle(blocks);
        sync_step(handle, net, local_loss, self.ctx.cfg.lr)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::featcache::CacheStats;
    use crate::pipeline::ActionKind;
    use dgcl_gnn::aggregate::block_aggregate;
    use dgcl_gnn::{AggKind, Architecture};
    use dgcl_graph::sample::build_block;
    use dgcl_graph::GraphBuilder;

    fn path5() -> CsrGraph {
        let mut b = GraphBuilder::new(5);
        for v in 0..4 {
            b.add_edge(v, v + 1);
        }
        b.build_symmetric()
    }

    #[test]
    fn block_aggregate_matches_full_kernel_on_full_fanout() {
        // With fanout ∞ over all vertices, the block kernel must agree
        // with the full-graph aggregate (same neighbor order).
        let g = path5();
        let h = Matrix::from_vec(
            5,
            2,
            vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0],
        );
        let block = build_block(&g, &[0, 1, 2, 3, 4], None, 0, 0).unwrap();
        for kind in [AggKind::Sum, AggKind::Mean] {
            let full = match kind {
                AggKind::Sum => dgcl_gnn::aggregate::aggregate_sum(&g, &h, 5),
                AggKind::Mean => dgcl_gnn::aggregate::aggregate_mean(&g, &h, 5),
            };
            let sampled = block_aggregate(kind, &block, &h);
            assert_eq!(full.max_abs_diff(&sampled), 0.0, "{kind:?}");
        }
    }

    #[test]
    fn scatter_is_the_adjoint_of_aggregate() {
        // <agg(h), g> == <h, scatter(g)> for sum and mean alike.
        let g = path5();
        let block = build_block(&g, &[1, 3], Some(2), 7, 0).unwrap();
        let h = Matrix::from_vec(
            block.num_src(),
            2,
            (0..block.num_src() * 2)
                .map(|i| i as f32 * 0.3 + 1.0)
                .collect(),
        );
        let grad = Matrix::from_vec(2, 2, vec![0.5, -1.0, 2.0, 0.25]);
        for kind in [AggKind::Sum, AggKind::Mean] {
            let agg = block_aggregate(kind, &block, &h);
            let scat = block_aggregate_backward(kind, &block, grad.clone());
            let lhs = agg.hadamard(&grad).sum();
            let rhs = h.hadamard(&scat).sum();
            assert!((lhs - rhs).abs() < 1e-5, "{kind:?}: {lhs} vs {rhs}");
        }
    }

    #[test]
    fn exact_config_is_detected() {
        assert!(SamplingConfig::exact(8, 2).is_exact());
        assert!(!SamplingConfig::new(8, vec![None, Some(3)]).is_exact());
    }

    const ARCHS: [Architecture; 4] = [
        Architecture::Gcn,
        Architecture::CommNet,
        Architecture::Gin,
        Architecture::Sage,
    ];

    #[test]
    fn a_seeds_forward_row_is_the_same_bits_in_its_owners_chain_and_the_global_one() {
        // What "trainer-local" rests on: draws are keyed per (seed,
        // layer, vertex), neighbours keep adjacency order and every kernel
        // is row-independent, so the chain of a rank's own seeds computes,
        // for each of them, the row the whole batch's chain computes.
        let g = dgcl_graph::generators::hub_attachment(300, 6, 0.8, 11);
        let features = dgcl_tensor::XavierInit::new(3).features(300, 6);
        let fanouts = [Some(3), Some(2), Some(4)];
        let batch: Vec<VertexId> = (0..48).map(|i| (i * 53 + 7) % 300).collect();
        let input = |chain: &[LayerBlock]| {
            let idx: Vec<usize> = chain[0].src.iter().map(|&v| v as usize).collect();
            features.gather_rows(&idx)
        };
        let mut pool = BlockPool::new();
        for arch in ARCHS {
            let net = GnnNetwork::new(arch, &[6, 5, 4, 3], 17);
            let global = pool.sample_blocks(&g, &batch, &fanouts, 9).unwrap();
            let all = forward_chain(net.clone().layers_mut(), &global, input(&global));
            for n in 2..=4u32 {
                for rank in 0..n {
                    let seeds: Vec<VertexId> = batch
                        .iter()
                        .copied()
                        .filter(|v| (v * 7 + 3) % n == rank)
                        .collect();
                    let chain = pool.sample_blocks(&g, &seeds, &fanouts, 9).unwrap();
                    let mine = forward_chain(net.clone().layers_mut(), &chain, input(&chain));
                    let seeds = &chain.last().unwrap().dst;
                    assert_eq!(mine.rows(), seeds.len());
                    for (i, v) in seeds.iter().enumerate() {
                        let at = global.last().unwrap().dst.binary_search(v).unwrap();
                        assert_eq!(mine.row(i), all.row(at), "{arch:?} {rank}/{n} seed {v}");
                    }
                    pool.recycle(chain);
                }
            }
            pool.recycle(global);
        }
    }

    #[test]
    fn an_empty_chain_trains_to_zero_gradients_without_a_panic() {
        // A rank that owns none of a batch's seeds runs the same program
        // over zero-row matrices and contributes zeros to the allreduce.
        let g = path5();
        let mut pool = BlockPool::new();
        for arch in ARCHS {
            let mut net = GnnNetwork::new(arch, &[2, 3, 2], 5);
            let kind = arch.agg_kind();
            let chain = pool.sample_blocks(&g, &[], &[Some(2), Some(2)], 1).unwrap();
            assert!(chain.iter().all(|b| b.num_src() == 0 && b.num_dst() == 0));
            let out = forward_chain(net.layers_mut(), &chain, Matrix::zeros(0, 2));
            assert_eq!(out.shape(), (0, 2));
            let (grad_agg, _) = net.layers_mut()[1].backward_agg(&out);
            let grad = block_aggregate_backward(kind, &chain[1], grad_agg);
            assert_eq!(grad.shape(), (0, 3));
            net.layers_mut()[0].backward_params(&grad);
            for layer in net.layers() {
                for g in layer.gradients() {
                    assert!(g.as_slice().iter().all(|&x| x == 0.0), "{arch:?}");
                }
            }
            pool.recycle(chain);
        }
    }

    /// Vertices in the test universe of [`boundary`].
    const UNIVERSE: u32 = 40;

    /// `n` ranks of a [`UNIVERSE`]-vertex universe (row `v` of the feature
    /// matrix is `[v + 1, 2v + 2]`, never zero), each requesting its own
    /// sorted-unique row list — the last of four requests nothing — with
    /// or without a cache in which rank `r` holds every remote `v` with
    /// `(v + r) % 4 == 0`.
    struct Boundary {
        n: usize,
        partition: Vec<u32>,
        lists: Vec<Vec<VertexId>>,
        features: Matrix,
        cache: Option<ClusterCache>,
    }

    fn boundary(n: usize, cached: bool) -> Boundary {
        let partition: Vec<u32> = (0..UNIVERSE).map(|v| (v * 7 + 3) % n as u32).collect();
        let lists = (0..n as u32)
            .map(|r| {
                (0..UNIVERSE)
                    .filter(|v| r < 3 && (v * 5 + r) % 3 != 1)
                    .collect()
            })
            .collect();
        let features = Matrix::from_vec(
            UNIVERSE as usize,
            2,
            (0..UNIVERSE)
                .flat_map(|v| [v as f32 + 1.0, 2.0 * v as f32 + 2.0])
                .collect(),
        );
        let cache = cached.then(|| ClusterCache {
            caches: (0..n)
                .map(|r| {
                    let ids: Vec<VertexId> = (0..UNIVERSE)
                        .filter(|&v| {
                            partition[v as usize] as usize != r
                                && (v as usize + r).is_multiple_of(4)
                        })
                        .collect();
                    let idx: Vec<usize> = ids.iter().map(|&v| v as usize).collect();
                    FeatureCache {
                        rows: features.gather_rows(&idx),
                        ids,
                        stats: CacheStats::default(),
                    }
                })
                .collect(),
        });
        Boundary {
            n,
            partition,
            lists,
            features,
            cache,
        }
    }

    impl Boundary {
        /// `rank`'s local ids and feature rows.
        fn local(&self, rank: usize) -> (Vec<VertexId>, Matrix) {
            let have: Vec<VertexId> = (0..UNIVERSE)
                .filter(|&v| self.partition[v as usize] as usize == rank)
                .collect();
            let idx: Vec<usize> = have.iter().map(|&v| v as usize).collect();
            (have, self.features.gather_rows(&idx))
        }

        /// `rank`'s plan of the exchange in which rank `q` requests
        /// `lists[q]`.
        fn plan(&self, rank: usize) -> GatherPlan {
            let (have, values) = self.local(rank);
            let rows = &self.lists[rank];
            let split = owner_split(rows, &self.partition, self.n);
            let owed: Vec<Vec<VertexId>> = self
                .lists
                .iter()
                .map(|l| {
                    let mine = |v: &&VertexId| self.partition[**v as usize] as usize == rank;
                    l.iter().filter(mine).copied().collect()
                })
                .collect();
            GatherPlan::for_requests(
                rows,
                &split,
                &owed,
                rank,
                &have,
                &values,
                self.cache.as_ref(),
            )
        }

        fn feature_rows<'a>(&'a self, rows: impl Iterator<Item = VertexId> + 'a) -> Vec<&'a [f32]> {
            rows.map(|v| self.features.row(v as usize)).collect()
        }
    }

    /// A cluster cache in which no rank holds a row.
    fn empty_cache(n: usize) -> ClusterCache {
        ClusterCache {
            caches: (0..n)
                .map(|_| FeatureCache {
                    ids: Vec::new(),
                    rows: Matrix::zeros(0, 2),
                    stats: CacheStats::default(),
                })
                .collect(),
        }
    }

    /// `plan`'s messages of one kind, read back from its schedule as
    /// `(peer, rows)`: rows of `sends` for a send, of `positions` for a
    /// receive.
    fn messages(
        plan: &GatherPlan,
        kind: ActionKind,
    ) -> impl Iterator<Item = (usize, std::ops::Range<usize>)> + '_ {
        let actions = plan.exchange.actions.iter().filter(move |a| a.kind == kind);
        actions.map(|a| (a.peer as usize, a.rows.start as usize..a.rows.end as usize))
    }

    #[test]
    fn per_rank_requests_pair_every_send_with_its_recv_and_place_every_row_once() {
        for n in 2..=4 {
            for cached in [false, true] {
                let b = boundary(n, cached);
                let plans: Vec<GatherPlan> = (0..n).map(|r| b.plan(r)).collect();
                for (me, plan) in plans.iter().enumerate() {
                    let (rows, what) = (&b.lists[me], format!("n={n} cached={cached} rank {me}"));
                    // A position is served locally (own or cached: in the
                    // base, with its value) or by exactly one message.
                    let mut wired: Vec<usize> = messages(plan, ActionKind::Recv)
                        .flat_map(|(_, r)| plan.positions[r].iter().copied())
                        .collect();
                    wired.sort_unstable();
                    assert!(wired.windows(2).all(|w| w[0] < w[1]), "{what}");
                    let mut hits = 0;
                    for (p, &v) in rows.iter().enumerate() {
                        let held = b
                            .cache
                            .as_ref()
                            .is_some_and(|c| c.caches[me].ids.binary_search(&v).is_ok());
                        hits += usize::from(held);
                        let local = held || b.partition[v as usize] as usize == me;
                        assert_eq!(wired.binary_search(&p).is_err(), local, "{what} row {v}");
                        let expected = if local {
                            b.features.row(v as usize)
                        } else {
                            &[0.0; 2]
                        };
                        assert_eq!(plan.base.row(p), expected, "{what} row {v}");
                    }
                    assert_eq!(plan.base.rows(), rows.len(), "{what}");
                    if let Some(c) = &b.cache {
                        let stats = c.caches[me].snapshot();
                        assert_eq!(
                            (stats.hits, stats.misses),
                            (hits as u64, wired.len() as u64)
                        );
                    }
                    for (peer, theirs) in plans.iter().enumerate().filter(|&(p, _)| p != me) {
                        // What `peer` posts to `me` is what `me` expects
                        // from `peer`, row for row, in wire order.
                        let sent: Vec<&[f32]> = messages(theirs, ActionKind::Send)
                            .filter(|(to, _)| *to == me)
                            .flat_map(|(_, r)| r.map(|i| theirs.sends.row(i)))
                            .collect();
                        let expected = messages(plan, ActionKind::Recv)
                            .filter(|(from, _)| *from == peer)
                            .flat_map(|(_, r)| plan.positions[r].iter().map(|&p| rows[p]));
                        assert_eq!(sent, b.feature_rows(expected), "{what} <- {peer}");
                    }
                }
            }
        }
    }

    #[test]
    fn every_rank_receives_its_own_list_over_the_fabric() {
        for n in 2..=4 {
            for cached in [false, true] {
                let b = boundary(n, cached);
                let fabric = Fabric::new(n);
                std::thread::scope(|scope| {
                    for rank in 0..n {
                        let (b, fabric) = (&b, &fabric);
                        scope.spawn(move || {
                            let plan = b.plan(rank);
                            let mut scratch = PipelineScratch::default();
                            let got = plan.execute(fabric, rank, 1, &mut scratch).unwrap();
                            let rows: Vec<&[f32]> = (0..got.rows()).map(|r| got.row(r)).collect();
                            let list = b.lists[rank].iter().copied();
                            assert_eq!(rows, b.feature_rows(list), "n={n} cached={cached} {rank}");
                        });
                    }
                });
            }
        }
    }

    #[test]
    fn the_symmetric_build_is_the_general_one_over_equal_lists() {
        for n in 2..=4 {
            for cached in [false, true] {
                let mut b = boundary(n, cached);
                b.lists = vec![b.lists[0].clone(); n];
                // A cache of empty caches serves nothing: the uncached plan.
                let empty = empty_cache(n);
                let cache = b.cache.as_ref().unwrap_or(&empty);
                for rank in 0..n {
                    let (have, values) = b.local(rank);
                    let (rows, part) = (&b.lists[0], &b.partition);
                    let symmetric =
                        GatherPlan::build_cached(rows, part, n, rank, &have, &values, cache);
                    let general = b.plan(rank);
                    assert_eq!(symmetric, general, "n={n} cached={cached} rank {rank}");
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "strictly ascending")]
    fn gather_plan_rejects_an_unsorted_row_list() {
        let values = Matrix::zeros(4, 1);
        let rows = [0, 2, 1];
        GatherPlan::build_cached(
            &rows,
            &[0; 4],
            1,
            0,
            &[0, 1, 2, 3],
            &values,
            &empty_cache(1),
        );
    }

    #[test]
    #[should_panic(expected = "strictly ascending")]
    fn gather_plan_rejects_a_repeated_row() {
        let values = Matrix::zeros(4, 1);
        let rows = [0, 2, 2];
        GatherPlan::build_cached(
            &rows,
            &[0; 4],
            1,
            0,
            &[0, 1, 2, 3],
            &values,
            &empty_cache(1),
        );
    }

    #[test]
    fn sampled_chains_satisfy_the_row_list_contract() {
        // Every list the block step requests is a `LayerBlock` `src` of a
        // pooled chain: strictly ascending, and adjacent blocks share
        // their boundary.
        let g = dgcl_graph::generators::hub_attachment(400, 8, 0.8, 5);
        let ascending = |rows: &[VertexId]| rows.windows(2).all(|w| w[0] < w[1]);
        let mut pool = BlockPool::new();
        for seed in 0..24u64 {
            let fanouts: Vec<Option<usize>> = (0..1 + seed as usize % 3)
                .map(|l| {
                    (!(seed + l as u64).is_multiple_of(5)).then_some(1 + (seed as usize + l) % 6)
                })
                .collect();
            // Unsorted, repeating seeds: the pool sorts and dedups them.
            let batch: Vec<VertexId> = (0..40)
                .map(|i| ((i * 37 + seed * 11) % 400) as VertexId)
                .collect();
            let blocks = pool
                .sample_blocks(&g, &batch, &fanouts, round_seed(seed, 0, 0))
                .unwrap();
            assert_eq!(blocks.len(), fanouts.len());
            for b in &blocks {
                assert!(
                    ascending(&b.src) && ascending(&b.dst),
                    "seed {seed} {fanouts:?}"
                );
            }
            for w in blocks.windows(2) {
                assert_eq!(w[0].dst, w[1].src, "seed {seed} {fanouts:?}");
            }
            pool.recycle(blocks);
        }
    }
}
