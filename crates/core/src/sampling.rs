//! Mini-batch sampled training: distributed execution of the
//! [`dgcl_graph::sample`] block chain.
//!
//! Full-batch training moves every remote embedding every epoch; sampled
//! training (DistDGL, PAPERS.md) moves only the rows a batch's fanout-
//! bounded blocks actually reference. The pieces here:
//!
//! * [`SamplingConfig`] — batch size, per-layer fanouts, seed, seed set.
//! * `owner_split` + [`GatherPlan`] + `execute_gather` — the batch-sized
//!   analogue of the graph allgather: every rank requests one ascending
//!   row list, every row is served by its owner, and who sends what to
//!   whom is derived on both ends of every message from shared knowledge.
//!   Runs over the raw fabric with op-aligned keys: the poison protocol
//!   and fault injector apply.
//! * `BlockSteps` — the trainer's **sampled-blocks** step kind (finite
//!   fanouts): each rank trains on the batch seeds it owns — its own
//!   block chain, one feature fetch, every layer local, one gradient
//!   allreduce — with [`crate::trainer::TrainConfig::overlap`] on, the
//!   overlap worker prefetches batch `k+1`'s features while batch `k`
//!   computes. This module moves rows; the
//!   compute over a chain ([`dgcl_gnn::forward_chain`], block
//!   aggregation and its adjoint) is `dgcl_gnn`'s, and a serving flush
//!   runs the same walk. With all fanouts ∞ the trainer
//!   instead runs its full-neighbourhood step with the loss masked to
//!   the batch; one batch covering every vertex is then *bitwise
//!   identical* to full-batch training — the parity criterion the test
//!   suite enforces.
//!
//! Determinism: samples are pure functions of `(seed, epoch, batch)` and
//! the seeds, so every rank reconstructs every peer's blocks — hence its
//! request list — without communication; row exchanges assemble in
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
use crate::fabric::{expect_payload, Fabric, MsgKey};
use crate::featcache::{AscendingWalk, ClusterCache, FeatureCache};
use crate::overlap::{OverlapWorker, Pending};
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
fn local_rows(have: &[VertexId], rows: impl Iterator<Item = VertexId>) -> Vec<usize> {
    let mut walk = AscendingWalk::new(have);
    rows.map(|v| walk.find(v).expect("owner holds its rows"))
        .collect()
}

/// The message between one requester and one owner: of the requester's
/// list positions `owned` (one entry of its list's [`owner_split`]), those
/// its cache lacks, in list order; `hit(position, cache row)` sees the
/// rest. Sender and receiver both call this with the same arguments —
/// lists, partition and cache sets are shared knowledge — so a message
/// carries exactly the rows its receiver expects.
fn wire_rows(
    rows: &[VertexId],
    owned: &[usize],
    cache: Option<&FeatureCache>,
    mut hit: impl FnMut(usize, usize),
) -> Vec<usize> {
    let Some(cache) = cache else {
        return owned.to_vec();
    };
    let mut walk = AscendingWalk::new(&cache.ids);
    let mut wire = Vec::with_capacity(owned.len());
    for &p in owned {
        match walk.find(rows[p]) {
            Some(ci) => hit(p, ci),
            None => wire.push(p),
        }
    }
    wire
}

/// One rank's request in a row exchange: its strictly ascending global
/// row list and that list's [`owner_split`].
pub(crate) type Request<'a> = (&'a [VertexId], &'a [Vec<usize>]);

/// One rank's view of a row exchange: every rank requests one strictly
/// ascending global row list and receives its matrix, output position `i`
/// *being* row `i` of its list, each row served by its owner. Every rank
/// derives every request list from shared knowledge (the batch, the
/// sampler's seed, the partition), so sends and receives pair up without
/// negotiation: a message carries the rows of the receiver's list its
/// sender owns, in list order, minus those in the receiver's
/// [`ClusterCache`] (cache sets are shared knowledge too). Those never
/// cross the wire: the requester embeds their values — and its own rows —
/// in its plan at build time, which also keeps the plan self-contained on
/// the prefetch worker.
#[derive(Debug)]
pub struct GatherPlan {
    /// The output with this rank's own and cache-served rows in place;
    /// the rows a peer's message fills are still zero.
    base: Matrix,
    /// Ascending peers and the rows each is sent (empty sends are
    /// dropped).
    sends: Vec<(usize, Matrix)>,
    /// Ascending contributing peers and the output positions their
    /// message fills, in wire order.
    recvs: Vec<(usize, Vec<usize>)>,
}

impl GatherPlan {
    /// Builds the uncached plan of the exchange in which *every* rank
    /// assembles `rows` (global ids, strictly ascending — a
    /// [`LayerBlock`]'s `src` or `dst` list). `have` lists the global
    /// ids backing `values`' rows (ascending); it must contain every row
    /// of `rows` this rank owns.
    ///
    /// # Panics
    ///
    /// Panics if `rows` is unsorted or repeats a row, or if `have` lacks
    /// a row of `rows` this rank owns.
    pub fn build(
        rows: &[VertexId],
        partition: &[u32],
        num_parts: usize,
        rank: usize,
        have: &[VertexId],
        values: &Matrix,
    ) -> Self {
        let split = owner_split(rows, partition, num_parts);
        let requests = vec![(rows, &split[..]); num_parts];
        Self::for_requests(&requests, rank, have, values, None)
    }

    /// [`GatherPlan::build`] against the cluster's feature cache: rows
    /// in this rank's cache are served locally (values embedded in the
    /// plan), and sends skip rows resident in each receiver's cache.
    /// Bumps this rank's [`CacheStats`](crate::featcache::CacheStats)
    /// with the exchange's hit/miss rows.
    ///
    /// # Panics
    ///
    /// See [`GatherPlan::build`].
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
        let requests = vec![(rows, &split[..]); num_parts];
        Self::for_requests(&requests, rank, have, values, Some(cache))
    }

    /// The plan of the exchange in which rank `q` requests `requests[q]`
    /// — the one body; [`GatherPlan::build`] is the case of `P` equal
    /// lists.
    pub(crate) fn for_requests(
        requests: &[Request<'_>],
        rank: usize,
        have: &[VertexId],
        values: &Matrix,
        cache: Option<&ClusterCache>,
    ) -> Self {
        let peers = || (0..requests.len()).filter(move |&peer| peer != rank);
        // Receives: each owner's rows of this rank's list, minus the
        // ones this rank's cache serves.
        let (rows, split) = requests[rank];
        let mut base = Matrix::zeros(rows.len(), values.cols());
        let own = local_rows(have, split[rank].iter().map(|&p| rows[p]));
        for (&p, r) in split[rank].iter().zip(own) {
            base.set_row(p, values.row(r));
        }
        let mine = cache.map(|c| &c.caches[rank]);
        let (mut hits, mut fetched) = (0, 0);
        let mut recvs = Vec::new();
        for peer in peers() {
            let wire = wire_rows(rows, &split[peer], mine, |p, ci| {
                base.set_row(p, mine.expect("a hit has a cache").rows.row(ci));
                hits += 1;
            });
            fetched += wire.len() as u64;
            if !wire.is_empty() {
                recvs.push((peer, wire));
            }
        }
        if let Some(m) = mine {
            m.stats.record(hits, fetched, values.cols());
        }
        // Sends: the mirror image — this rank's rows of each peer's
        // list, minus the ones that peer's cache serves.
        let sends = peers()
            .filter_map(|peer| {
                let (rows, split) = requests[peer];
                let theirs = cache.map(|c| &c.caches[peer]);
                let wire = wire_rows(rows, &split[rank], theirs, |_, _| {});
                let out = local_rows(have, wire.iter().map(|&p| rows[p]));
                (!out.is_empty()).then(|| (peer, values.gather_rows(&out)))
            })
            .collect();
        Self { base, sends, recvs }
    }
}

/// Executes a [`GatherPlan`] under a pre-assigned op: posts each peer
/// its rows, then fills the plan's output (own and cache-served rows
/// already in place) from each contributing peer's message, drained in
/// ascending rank order. Runs on the main thread or on the
/// [`OverlapWorker`] (prefetch) — op-tagged keys keep the two apart.
pub(crate) fn execute_gather(
    fabric: &Fabric,
    rank: usize,
    op: u64,
    plan: &GatherPlan,
) -> Result<Matrix, RuntimeError> {
    let key: MsgKey = (op, 0, 0, 0);
    for (peer, rows) in &plan.sends {
        fabric.wait_ready(*peer, op, rank)?;
        fabric.send(rank, *peer, key, rows.as_slice().to_vec())?;
    }
    let mut out = plan.base.clone();
    let cols = out.cols();
    for (peer, pos) in &plan.recvs {
        let payload = fabric.recv(*peer, rank, key)?;
        expect_payload(rank, payload.len(), pos.len() * cols, key)?;
        let got = Matrix::from_vec(pos.len(), cols, payload);
        for (r, &p) in pos.iter().enumerate() {
            out.set_row(p, got.row(r));
        }
    }
    Ok(out)
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
/// gradients and zero loss. Holds what outlives a step: the recycle pool
/// for block-chain scratch, and — with `overlap` on — the chain and the
/// pending feature fetch of the *next* batch, posted on an
/// [`OverlapWorker`] while the current one computes.
pub(crate) struct BlockSteps<'a> {
    handle: &'a DeviceHandle<'a>,
    ctx: &'a EpochCtx<'a>,
    scfg: &'a SamplingConfig,
    worker: Option<OverlapWorker>,
    pool: BlockPool,
    prefetched: Option<(Vec<LayerBlock>, Pending)>,
}

impl<'a> BlockSteps<'a> {
    pub(crate) fn new(
        handle: &'a DeviceHandle<'a>,
        ctx: &'a EpochCtx<'a>,
        scfg: &'a SamplingConfig,
    ) -> Self {
        Self {
            handle,
            ctx,
            scfg,
            worker: ctx.cfg.overlap.then(|| handle.overlap_worker()),
            pool: BlockPool::new(),
            prefetched: None,
        }
    }

    /// This rank's block chain of batch `bi` and the plan of its feature
    /// fetch. The batch's seeds split by owner; each owner's chain is a
    /// pure function of `(seed, epoch, batch)` and its seeds, so this rank
    /// samples all of them — together about one global chain's work — to
    /// learn every peer's request list (`blocks[0].src`, the raw features
    /// its chain reads) the way that peer does, keeps its own and recycles
    /// the rest. A bad seed unwinds through the poison protocol.
    fn sample(
        &mut self,
        epoch: usize,
        batches: &[Vec<VertexId>],
        bi: usize,
    ) -> Result<(Vec<LayerBlock>, GatherPlan), RuntimeError> {
        let (rank, pg) = (self.handle.rank, &self.handle.comm_info().pg);
        let mut batch = batches[bi].clone();
        batch.sort_unstable();
        batch.dedup();
        let round = round_seed(self.scfg.seed, epoch, bi);
        let mut chains = Vec::with_capacity(pg.num_parts);
        for owned in owner_split(&batch, &pg.partition, pg.num_parts) {
            let seeds: Vec<VertexId> = owned.iter().map(|&p| batch[p]).collect();
            let chain = self
                .pool
                .sample_blocks(self.ctx.graph, &seeds, &self.scfg.fanouts, round);
            let chain = chain.map_err(|e| graph_err(rank, &e));
            chains.push(self.handle.poison_on_err(chain)?);
        }
        let splits: Vec<_> = chains
            .iter()
            .map(|c| owner_split(&c[0].src, &pg.partition, pg.num_parts))
            .collect();
        let requests: Vec<Request<'_>> = chains
            .iter()
            .zip(&splits)
            .map(|(c, s)| (&c[0].src[..], &s[..]))
            .collect();
        let plan = GatherPlan::for_requests(
            &requests,
            rank,
            &pg.local[rank],
            &self.ctx.features[rank],
            self.ctx.cache,
        );
        let mine = chains.swap_remove(rank);
        for chain in chains {
            self.pool.recycle(chain);
        }
        Ok((mine, plan))
    }

    /// Forward, loss, backward and [`sync_step`] of batch `bi`; returns
    /// the cluster-summed loss.
    pub(crate) fn step(
        &mut self,
        net: &mut GnnNetwork,
        epoch: usize,
        batches: &[Vec<VertexId>],
        bi: usize,
    ) -> Result<f32, RuntimeError> {
        let handle = self.handle;
        let rank = handle.rank;
        let (blocks, h) = match self.prefetched.take() {
            Some((blocks, pending)) => (blocks, handle.wait_pending(pending)?),
            None => {
                let (blocks, plan) = self.sample(epoch, batches, bi)?;
                (blocks, handle.exchange_rows(&plan)?)
            }
        };
        if self.worker.is_some() && bi + 1 < batches.len() {
            let (next, plan) = self.sample(epoch, batches, bi + 1)?;
            let worker = self.worker.as_ref().expect("checked above");
            let pending = handle.with_op(|op| worker.submit_exchange(op, plan))?;
            self.prefetched = Some((next, pending));
        }
        let out = forward_chain(net.layers_mut(), &blocks, h);
        // Loss over this rank's seeds, which it owns.
        let seeds = blocks.last().expect("≥ 1 layer").dst.iter().copied();
        let target_rows = local_rows(&handle.comm_info().pg.local[rank], seeds);
        let diff = out.sub(&self.ctx.targets[rank].gather_rows(&target_rows));
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
        use crate::featcache::CacheStats;
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
            let splits: Vec<_> = self
                .lists
                .iter()
                .map(|l| owner_split(l, &self.partition, self.n))
                .collect();
            let requests: Vec<Request<'_>> = self
                .lists
                .iter()
                .zip(&splits)
                .map(|(l, s)| (&l[..], &s[..]))
                .collect();
            GatherPlan::for_requests(&requests, rank, &have, &values, self.cache.as_ref())
        }

        fn feature_rows<'a>(&'a self, rows: impl Iterator<Item = VertexId> + 'a) -> Vec<&'a [f32]> {
            rows.map(|v| self.features.row(v as usize)).collect()
        }
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
                    let mut wired: Vec<usize> =
                        plan.recvs.iter().flat_map(|(_, p)| p.clone()).collect();
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
                        let sent: Vec<&[f32]> = theirs
                            .sends
                            .iter()
                            .filter(|(to, _)| *to == me)
                            .flat_map(|(_, m)| (0..m.rows()).map(|r| m.row(r)))
                            .collect();
                        let expected = plan
                            .recvs
                            .iter()
                            .filter(|(from, _)| *from == peer)
                            .flat_map(|(_, pos)| pos.iter().map(|&p| rows[p]));
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
                            fabric.set_ready(rank, 1);
                            let got = execute_gather(fabric, rank, 1, &plan).unwrap();
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
                for rank in 0..n {
                    let (have, values) = b.local(rank);
                    let (rows, part) = (&b.lists[0], &b.partition);
                    let symmetric = match &b.cache {
                        Some(c) => GatherPlan::build_cached(rows, part, n, rank, &have, &values, c),
                        None => GatherPlan::build(rows, part, n, rank, &have, &values),
                    };
                    let general = b.plan(rank);
                    assert!(
                        symmetric.base == general.base
                            && symmetric.sends == general.sends
                            && symmetric.recvs == general.recvs,
                        "n={n} cached={cached} rank {rank}"
                    );
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "strictly ascending")]
    fn gather_plan_rejects_an_unsorted_row_list() {
        let values = Matrix::zeros(4, 1);
        GatherPlan::build(&[0, 2, 1], &[0; 4], 1, 0, &[0, 1, 2, 3], &values);
    }

    #[test]
    #[should_panic(expected = "strictly ascending")]
    fn gather_plan_rejects_a_repeated_row() {
        let values = Matrix::zeros(4, 1);
        GatherPlan::build(&[0, 2, 2], &[0; 4], 1, 0, &[0, 1, 2, 3], &values);
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
