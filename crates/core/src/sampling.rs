//! Mini-batch sampled training: distributed execution of the
//! [`dgcl_graph::sample`] block chain.
//!
//! Full-batch training moves every remote embedding every epoch; sampled
//! training (DistDGL, PAPERS.md) moves only the rows a batch's fanout-
//! bounded blocks actually reference. The pieces here:
//!
//! * [`SamplingConfig`] — batch size, per-layer fanouts, seed, prefetch.
//! * `owner_split` + [`GatherPlan`] + the row exchange executors — the
//!   batch-sized analogue of the graph allgather and its reversed
//!   tables: who owns which rows of a block boundary is worked out once;
//!   over it every rank contributes the block rows it owns and assembles
//!   the full source matrix (forward), or reduces per-row gradients back
//!   to the owners (backward). Both run over the raw fabric with
//!   op-aligned keys: the poison protocol and fault injector apply.
//! * `BlockSteps` — the trainer's **sampled-blocks** step kind (finite
//!   fanouts, compact per-batch compute, optional overlap-worker
//!   prefetch of batch `k+1`'s features while batch `k` computes). With
//!   all fanouts ∞ the trainer instead runs its full-neighbourhood step
//!   with the loss masked to the batch; one batch covering every vertex
//!   is then *bitwise identical* to full-batch training — the parity
//!   criterion the test suite enforces.
//!
//! Determinism: samples are pure functions of `(seed, epoch, batch)`, so
//! every rank reconstructs every peer's blocks without communication;
//! row exchanges assemble and reduce in ascending rank order; and resumed
//! runs replay the same batches from the checkpoint epoch.

use dgcl_gnn::{AggKind, GnnNetwork};
use dgcl_graph::khop::GraphError;
use dgcl_graph::sample::{round_seed, BlockPool, LayerBlock};
use dgcl_graph::{CsrGraph, VertexId};
use dgcl_tensor::Matrix;

use crate::error::RuntimeError;
use crate::fabric::{expect_payload, Fabric, MsgKey};
use crate::featcache::ClusterCache;
use crate::overlap::{OverlapWorker, Pending};
use crate::runtime::DeviceHandle;
use crate::trainer::{input_learns, EpochCtx, GradSync};

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
    /// Prefetch the next batch's input-layer feature rows on a
    /// background worker while the current batch computes (finite
    /// fanouts only).
    pub prefetch: bool,
    /// The training seed set; `None` means every vertex. Out-of-range
    /// ids surface as a typed [`RuntimeError::Protocol`] through
    /// `run_cluster`, never as a rank-thread abort.
    pub train_vertices: Option<Vec<VertexId>>,
}

impl SamplingConfig {
    /// A sampled config with the given batch size and per-layer fanouts,
    /// a fixed seed and prefetch enabled.
    pub fn new(batch_size: usize, fanouts: Vec<Option<usize>>) -> Self {
        Self {
            batch_size,
            fanouts,
            seed: 0x5EED,
            prefetch: true,
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

/// The owner split of one block boundary: for a strictly ascending
/// global row list (a [`LayerBlock`]'s `src` or `dst`), the ascending
/// list positions rank `r` owns, as `split[r]`. One split serves all its
/// boundary needs — which block rows a rank computes, the forward row
/// gather ([`GatherPlan`]) and, reversed, the backward row reduction
/// ([`execute_reduce`]) — as the planned path's send/receive tables do.
///
/// # Panics
///
/// Panics unless `rows` is strictly ascending.
pub(crate) fn owner_split(
    rows: &[VertexId],
    partition: &[u32],
    num_parts: usize,
) -> Vec<Vec<usize>> {
    let mut split = vec![Vec::new(); num_parts];
    for (i, &v) in rows.iter().enumerate() {
        assert!(i == 0 || rows[i - 1] < v, "rows must be strictly ascending");
        split[partition[v as usize] as usize].push(i);
    }
    split
}

/// For each position of `pos`, the row of `have` (ascending global ids,
/// the rows a rank's local matrices hold) that is `rows[position]`.
fn local_rows(have: &[VertexId], rows: &[VertexId], pos: &[usize]) -> Vec<usize> {
    pos.iter()
        .map(|&p| have.binary_search(&rows[p]).expect("owner holds its rows"))
        .collect()
}

/// One rank's view of the forward row exchange over one block boundary:
/// assemble the matrix for a strictly ascending global row list from the
/// per-rank owners, so output position `i` *is* row `i` of the list.
/// Every rank derives the same [`owner_split`] from the shared block
/// chain and partition, so sends and receives pair up without
/// negotiation: a message carries the rows its sender owns, in list
/// order, minus those in the receiver's [`ClusterCache`] (cache sets are
/// shared knowledge too). Those never cross the wire: the requester
/// embeds their values in its plan at build time, which also keeps the
/// plan self-contained on the prefetch worker.
#[derive(Debug)]
pub struct GatherPlan {
    out_rows: usize,
    /// This rank's owned rows of the list, in list order, and the output
    /// position of each.
    own: Matrix,
    own_pos: Vec<usize>,
    /// Ascending peers and the `own` row indices each receives (rows in
    /// the peer's cache are omitted; empty sends are dropped).
    sends: Vec<(usize, Vec<usize>)>,
    /// Ascending contributing peers and the output positions their
    /// message fills, in wire order.
    recvs: Vec<(usize, Vec<usize>)>,
    /// Cache-served values copied out of this rank's cache at build
    /// time, and the output position of each.
    cached: Matrix,
    cached_pos: Vec<usize>,
}

impl GatherPlan {
    /// Builds the uncached plan for assembling `rows` (global ids,
    /// strictly ascending — a [`LayerBlock`]'s `src` or `dst` list).
    /// `have` lists the global ids backing `values`' rows (ascending);
    /// it must contain every row of `rows` this rank owns.
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
        Self::from_have(rows, partition, num_parts, rank, have, values, None)
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
        Self::from_have(rows, partition, num_parts, rank, have, values, Some(cache))
    }

    /// The plan over a boundary nobody else splits (the raw features').
    fn from_have(
        rows: &[VertexId],
        partition: &[u32],
        num_parts: usize,
        rank: usize,
        have: &[VertexId],
        values: &Matrix,
        cache: Option<&ClusterCache>,
    ) -> Self {
        let split = owner_split(rows, partition, num_parts);
        let own = values.gather_rows(&local_rows(have, rows, &split[rank]));
        Self::on_split(rows, &split, rank, own, cache)
    }

    /// The plan over an already split boundary; `own` holds this rank's
    /// rows of the list in `split[rank]` order (an inter-layer gather
    /// passes the block rows it has just computed, as they are).
    pub(crate) fn on_split(
        rows: &[VertexId],
        split: &[Vec<usize>],
        rank: usize,
        own: Matrix,
        cache: Option<&ClusterCache>,
    ) -> Self {
        let own_pos = split[rank].to_vec();
        debug_assert_eq!(own.rows(), own_pos.len());
        let peers = || (0..split.len()).filter(move |&peer| peer != rank);
        // Receives: a peer's rows in list order, minus the ones this
        // rank's cache serves.
        let mine = cache.map(|c| &c.caches[rank]);
        let (mut cached_rows, mut cached_pos) = (Vec::new(), Vec::new());
        let mut recvs = Vec::new();
        for peer in peers() {
            let mut wire = Vec::with_capacity(split[peer].len());
            for &p in &split[peer] {
                match mine.and_then(|m| m.lookup(rows[p])) {
                    Some(ci) => {
                        cached_rows.push(ci);
                        cached_pos.push(p);
                    }
                    None => wire.push(p),
                }
            }
            if !wire.is_empty() {
                recvs.push((peer, wire));
            }
        }
        let cached = match mine {
            Some(m) => {
                let fetched: usize = recvs.iter().map(|(_, wire)| wire.len()).sum();
                m.stats
                    .record(cached_rows.len() as u64, fetched as u64, own.cols());
                m.rows.gather_rows(&cached_rows)
            }
            None => Matrix::zeros(0, own.cols()),
        };
        // Sends: the mirror image — this rank's rows in list order,
        // minus the ones the receiving peer's cache serves.
        let sends = peers()
            .filter_map(|peer| {
                let out: Vec<usize> = (0..own_pos.len())
                    .filter(|&r| !cache.is_some_and(|c| c.contains(peer, rows[own_pos[r]])))
                    .collect();
                (!out.is_empty()).then_some((peer, out))
            })
            .collect();
        Self {
            out_rows: rows.len(),
            own,
            own_pos,
            sends,
            recvs,
            cached,
            cached_pos,
        }
    }
}

/// Executes a [`GatherPlan`] under a pre-assigned op: posts each peer
/// its share of this rank's rows, then fills the output from the plan's
/// own and cache-served rows and from each contributing peer's message,
/// drained in ascending rank order. Runs on the main thread or on the
/// [`OverlapWorker`] (prefetch) — op-tagged keys keep the two apart.
pub(crate) fn execute_gather(
    fabric: &Fabric,
    rank: usize,
    op: u64,
    plan: &GatherPlan,
) -> Result<Matrix, RuntimeError> {
    let key: MsgKey = (op, 0, 0, 0);
    let cols = plan.own.cols();
    for (peer, idx) in &plan.sends {
        fabric.wait_ready(*peer, op, rank)?;
        fabric.send(rank, *peer, key, plan.own.gather_rows(idx).into_vec())?;
    }
    let mut out = Matrix::zeros(plan.out_rows, cols);
    let mut place = |from: &Matrix, pos: &[usize]| {
        for (r, &p) in pos.iter().enumerate() {
            out.set_row(p, from.row(r));
        }
    };
    place(&plan.own, &plan.own_pos);
    place(&plan.cached, &plan.cached_pos);
    for (peer, pos) in &plan.recvs {
        let payload = fabric.recv(*peer, rank, key)?;
        expect_payload(rank, payload.len(), pos.len() * cols, key)?;
        place(&Matrix::from_vec(pos.len(), cols, payload), pos);
    }
    Ok(out)
}

/// The adjoint of [`execute_gather`] — the same boundary's
/// [`owner_split`], reversed: every rank holds a dense gradient
/// contribution over all of the boundary's rows; each owner sums the
/// slices for its rows in ascending rank order (its own at its rank
/// position), so the reduction is deterministic, and returns them.
pub(crate) fn execute_reduce(
    fabric: &Fabric,
    rank: usize,
    op: u64,
    contrib: &Matrix,
    split: &[Vec<usize>],
) -> Result<Matrix, RuntimeError> {
    let key: MsgKey = (op, 0, 0, 0);
    let cols = contrib.cols();
    for (peer, pos) in split.iter().enumerate() {
        if peer != rank && !pos.is_empty() {
            fabric.wait_ready(peer, op, rank)?;
            fabric.send(rank, peer, key, contrib.gather_rows(pos).into_vec())?;
        }
    }
    let own_pos = &split[rank];
    let mut out = Matrix::zeros(own_pos.len(), cols);
    for peer in 0..split.len() {
        if peer == rank {
            out.add_assign(&contrib.gather_rows(own_pos));
        } else if !own_pos.is_empty() {
            let payload = fabric.recv(peer, rank, key)?;
            expect_payload(rank, payload.len(), own_pos.len() * cols, key)?;
            out.add_assign(&Matrix::from_vec(own_pos.len(), cols, payload));
        }
    }
    Ok(out)
}

/// Aggregates the sampled neighborhoods of this rank's block rows from
/// the assembled source matrix: the mini-batch analogue of
/// [`dgcl_gnn::aggregate::aggregate_sum`] / `aggregate_mean`, with the
/// *sampled* degree as the mean divisor (degree 1 is left undivided,
/// mirroring the full-graph kernel).
pub(crate) fn block_aggregate(
    block: &LayerBlock,
    rows_mine: &[usize],
    h_src: &Matrix,
    kind: AggKind,
) -> Matrix {
    let cols = h_src.cols();
    let mut out = Matrix::zeros(rows_mine.len(), cols);
    for (j, &i) in rows_mine.iter().enumerate() {
        let targets = block.row(i);
        let row = out.row_mut(j);
        for &t in targets {
            for (o, &x) in row.iter_mut().zip(h_src.row(t as usize)) {
                *o += x;
            }
        }
        if kind == AggKind::Mean && targets.len() > 1 {
            let inv = 1.0 / targets.len() as f32;
            for o in row.iter_mut() {
                *o *= inv;
            }
        }
    }
    out
}

/// The adjoint of [`block_aggregate`]: scatters this rank's aggregate
/// gradients back over the block edges into a dense gradient over the
/// full source set (zeros elsewhere), ready for [`execute_reduce`].
pub(crate) fn block_scatter_grad(
    block: &LayerBlock,
    rows_mine: &[usize],
    grad_agg: &Matrix,
    kind: AggKind,
) -> Matrix {
    let cols = grad_agg.cols();
    let mut out = Matrix::zeros(block.num_src(), cols);
    for (j, &i) in rows_mine.iter().enumerate() {
        let targets = block.row(i);
        let scale = if kind == AggKind::Mean && targets.len() > 1 {
            1.0 / targets.len() as f32
        } else {
            1.0
        };
        for &t in targets {
            for (o, &g) in out.row_mut(t as usize).iter_mut().zip(grad_agg.row(j)) {
                *o += scale * g;
            }
        }
    }
    out
}

/// The training seed set: the configured subset, or every vertex.
pub(crate) fn train_set(scfg: &SamplingConfig, graph: &CsrGraph) -> Vec<VertexId> {
    match &scfg.train_vertices {
        Some(v) => v.clone(),
        None => (0..graph.num_vertices() as VertexId).collect(),
    }
}

/// The sampled-blocks step kind of [`crate::trainer`]'s device body:
/// finite fanouts, compact per-batch blocks, row exchanges between
/// layers, gradient row reductions on the way back, and (when
/// configured) the next batch's feature gather prefetched on an
/// [`OverlapWorker`]. Holds what outlives a step: the recycle pool for
/// block-chain scratch (with prefetch on, steady state holds two chains'
/// carcasses) and the blocks + pending feature gather of the *next*
/// batch, posted while the current one computes.
pub(crate) struct BlockSteps<'a> {
    handle: &'a DeviceHandle<'a>,
    ctx: &'a EpochCtx<'a>,
    scfg: &'a SamplingConfig,
    worker: Option<OverlapWorker>,
    pool: BlockPool,
    prefetched: Option<(Vec<LayerBlock>, Pending<Matrix>)>,
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
            worker: scfg.prefetch.then(|| handle.overlap_worker()),
            pool: BlockPool::new(),
            prefetched: None,
        }
    }

    /// Batch `bi`'s block chain (a bad seed unwinds through the poison
    /// protocol) and the plan of its layer-0 feature gather — the only
    /// gather over *raw* features, the immutable rows the cache holds, so
    /// the only one that consults it. No block row is computed on that
    /// boundary and no gradient reduces over it: the plan alone splits it.
    fn sample(
        &mut self,
        epoch: usize,
        batches: &[Vec<VertexId>],
        bi: usize,
    ) -> Result<(Vec<LayerBlock>, GatherPlan), RuntimeError> {
        let (rank, pg) = (self.handle.rank, &self.handle.comm_info().pg);
        let blocks = self.pool.sample_blocks(
            self.ctx.graph,
            &batches[bi],
            &self.scfg.fanouts,
            round_seed(self.scfg.seed, epoch, bi),
        );
        let blocks = self
            .handle
            .poison_on_err(blocks.map_err(|e| graph_err(rank, &e)))?;
        let plan = GatherPlan::from_have(
            &blocks[0].src,
            &pg.partition,
            pg.num_parts,
            rank,
            &pg.local[rank],
            &self.ctx.features[rank],
            self.ctx.cache,
        );
        Ok((blocks, plan))
    }

    /// Forward, loss and backward of batch `bi`, reporting to `sync`.
    pub(crate) fn step(
        &mut self,
        net: &mut GnnNetwork,
        sync: &mut GradSync<'_>,
        epoch: usize,
        batches: &[Vec<VertexId>],
        bi: usize,
    ) -> Result<(), RuntimeError> {
        let handle = self.handle;
        let rank = handle.rank;
        let pg = &handle.comm_info().pg;
        let agg_kind = self.ctx.cfg.arch.agg_kind();
        let num_layers = net.num_layers();
        let (blocks, mut h) = match self.prefetched.take() {
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
        // One owner split per boundary above the raw features:
        // `splits[l]` is over `blocks[l].dst`, which is `blocks[l + 1].src`.
        let splits: Vec<_> = blocks
            .iter()
            .map(|b| owner_split(&b.dst, &pg.partition, pg.num_parts))
            .collect();
        // Forward: each rank computes only the block rows it owns;
        // between layers the owners' outputs reassemble into the next
        // block's full source matrix.
        for (l, block) in blocks.iter().enumerate() {
            let rows_mine = &splits[l][rank];
            let self_pos: Vec<usize> = rows_mine
                .iter()
                .map(|&i| block.dst_pos[i] as usize)
                .collect();
            let h_self = h.gather_rows(&self_pos);
            let agg = block_aggregate(block, rows_mine, &h, agg_kind);
            let h_mine = net.layers_mut()[l].forward_agg(&h_self, agg);
            h = if l + 1 < num_layers {
                let plan = GatherPlan::on_split(&block.dst, &splits[l], rank, h_mine, None);
                handle.exchange_rows(&plan)?
            } else {
                h_mine
            };
        }
        // Loss over this rank's batch rows.
        let last = num_layers - 1;
        let target_rows = local_rows(&pg.local[rank], &blocks[last].dst, &splits[last][rank]);
        let tgt = self.ctx.targets[rank].gather_rows(&target_rows);
        let diff = h.sub(&tgt);
        sync.loss(handle, 0.5 * diff.norm_sq())?;
        // Backward: scatter aggregate gradients over the block edges,
        // reduce rows to their owners, fold the self-path locally.
        let mut grad = diff;
        for l in (0..num_layers).rev() {
            let block = &blocks[l];
            let rows_mine = &splits[l][rank];
            if input_learns(l) {
                let (grad_agg, direct) = net.layers_mut()[l].backward_agg(&grad);
                let mut grad_src = block_scatter_grad(block, rows_mine, &grad_agg, agg_kind);
                if let Some(direct) = direct {
                    for (j, &i) in rows_mine.iter().enumerate() {
                        let p = block.dst_pos[i] as usize;
                        for (o, &g) in grad_src.row_mut(p).iter_mut().zip(direct.row(j)) {
                            *o += g;
                        }
                    }
                }
                // Owners of this block's source rows collect their
                // gradients: layer `l - 1`'s gather split, reversed.
                let split = &splits[l - 1];
                grad = handle
                    .with_op(|op| execute_reduce(handle.fabric(), rank, op, &grad_src, split))?;
            } else {
                net.layers_mut()[l].backward_params(&grad);
            }
            sync.layer_done(handle, &net.layers()[l])?;
        }
        self.pool.recycle(blocks);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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
        let all: Vec<usize> = (0..5).collect();
        for kind in [AggKind::Sum, AggKind::Mean] {
            let full = match kind {
                AggKind::Sum => dgcl_gnn::aggregate::aggregate_sum(&g, &h, 5),
                AggKind::Mean => dgcl_gnn::aggregate::aggregate_mean(&g, &h, 5),
            };
            let sampled = block_aggregate(&block, &all, &h, kind);
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
            let agg = block_aggregate(&block, &[0, 1], &h, kind);
            let scat = block_scatter_grad(&block, &[0, 1], &grad, kind);
            let lhs: f32 = agg
                .as_slice()
                .iter()
                .zip(grad.as_slice())
                .map(|(a, b)| a * b)
                .sum();
            let rhs: f32 = h
                .as_slice()
                .iter()
                .zip(scat.as_slice())
                .map(|(a, b)| a * b)
                .sum();
            assert!((lhs - rhs).abs() < 1e-5, "{kind:?}: {lhs} vs {rhs}");
        }
    }

    #[test]
    fn exact_config_is_detected() {
        assert!(SamplingConfig::exact(8, 2).is_exact());
        assert!(!SamplingConfig::new(8, vec![None, Some(3)]).is_exact());
    }

    /// Vertices in the test universe of [`boundary`].
    const UNIVERSE: u32 = 40;

    /// A sorted-unique row list over `n` ranks of a [`UNIVERSE`]-vertex universe
    /// (row `v` of the feature matrix is `[v, 2v]`), with or without a
    /// cache in which rank `r` holds every remote `v` with
    /// `(v + r) % 4 == 0`.
    struct Boundary {
        n: usize,
        partition: Vec<u32>,
        rows: Vec<VertexId>,
        features: Matrix,
        cache: Option<ClusterCache>,
    }

    fn boundary(n: usize, cached: bool) -> Boundary {
        use crate::featcache::{CacheStats, FeatureCache};
        let partition: Vec<u32> = (0..UNIVERSE).map(|v| (v * 7 + 3) % n as u32).collect();
        let rows: Vec<VertexId> = (0..UNIVERSE).filter(|v| v % 3 != 1).collect();
        let features = Matrix::from_vec(
            UNIVERSE as usize,
            2,
            (0..UNIVERSE)
                .flat_map(|v| [v as f32, 2.0 * v as f32])
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
            rows,
            features,
            cache,
        }
    }

    impl Boundary {
        fn plan(&self, rank: usize) -> GatherPlan {
            let have: Vec<VertexId> = (0..UNIVERSE)
                .filter(|&v| self.partition[v as usize] as usize == rank)
                .collect();
            let idx: Vec<usize> = have.iter().map(|&v| v as usize).collect();
            let values = self.features.gather_rows(&idx);
            let (rows, part) = (&self.rows, &self.partition);
            match &self.cache {
                Some(c) => GatherPlan::build_cached(rows, part, self.n, rank, &have, &values, c),
                None => GatherPlan::build(rows, part, self.n, rank, &have, &values),
            }
        }
    }

    #[test]
    fn gather_plan_sends_mirror_peer_recvs_and_place_every_row_once() {
        for n in 2..=4 {
            for cached in [false, true] {
                let b = boundary(n, cached);
                let plans: Vec<GatherPlan> = (0..n).map(|r| b.plan(r)).collect();
                for (me, plan) in plans.iter().enumerate() {
                    let mut placed: Vec<usize> = plan
                        .recvs
                        .iter()
                        .flat_map(|(_, pos)| pos)
                        .chain(&plan.own_pos)
                        .chain(&plan.cached_pos)
                        .copied()
                        .collect();
                    placed.sort_unstable();
                    let all: Vec<usize> = (0..b.rows.len()).collect();
                    assert_eq!(placed, all, "n={n} cached={cached} rank {me}");
                    assert_eq!(cached, !plan.cached_pos.is_empty());
                    for (peer, theirs) in plans.iter().enumerate().filter(|&(p, _)| p != me) {
                        // What `peer` posts to `me`, and what `me` expects
                        // from `peer`, as list positions in wire order.
                        let sent: Vec<usize> = theirs
                            .sends
                            .iter()
                            .filter(|(to, _)| *to == me)
                            .flat_map(|(_, idx)| idx.iter().map(|&r| theirs.own_pos[r]))
                            .collect();
                        let expected: Vec<usize> = plan
                            .recvs
                            .iter()
                            .filter(|(from, _)| *from == peer)
                            .flat_map(|(_, pos)| pos.clone())
                            .collect();
                        assert_eq!(sent, expected, "n={n} cached={cached} {peer} -> {me}");
                    }
                }
            }
        }
    }

    #[test]
    fn gather_and_reduce_over_one_split_are_adjoint() {
        // <gather(x), y> == <x, reduce(y)> summed over ranks, exactly:
        // every value is a small integer. `x` is the feature matrix (so
        // cache-served rows agree with the wire's), `y` differs per rank.
        for n in 2..=4 {
            for cached in [false, true] {
                let b = boundary(n, cached);
                let split = owner_split(&b.rows, &b.partition, n);
                let fabric = Fabric::new(n);
                let sides: Vec<(f32, f32)> = std::thread::scope(|scope| {
                    let joins: Vec<_> = (0..n)
                        .map(|rank| {
                            let (b, split, fabric) = (&b, &split, &fabric);
                            scope.spawn(move || {
                                let plan = b.plan(rank);
                                fabric.set_ready(rank, 1);
                                let gathered = execute_gather(fabric, rank, 1, &plan).unwrap();
                                for (i, &v) in b.rows.iter().enumerate() {
                                    assert_eq!(gathered.row(i), b.features.row(v as usize));
                                }
                                let y = Matrix::from_vec(
                                    b.rows.len(),
                                    2,
                                    (0..2 * b.rows.len())
                                        .map(|i| ((i * 5 + rank * 3) % 7) as f32 - 3.0)
                                        .collect(),
                                );
                                fabric.set_ready(rank, 2);
                                let reduced = execute_reduce(fabric, rank, 2, &y, split).unwrap();
                                (
                                    gathered.hadamard(&y).sum(),
                                    plan.own.hadamard(&reduced).sum(),
                                )
                            })
                        })
                        .collect();
                    joins.into_iter().map(|j| j.join().unwrap()).collect()
                });
                let lhs: f32 = sides.iter().map(|s| s.0).sum();
                let rhs: f32 = sides.iter().map(|s| s.1).sum();
                assert_eq!(lhs, rhs, "n={n} cached={cached}");
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
        // Every list the block step splits is a `LayerBlock` `src` / `dst`
        // of a pooled chain: strictly ascending, and adjacent blocks share
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
