//! Distributed full-graph GNN training with single-device parity.
//!
//! Integrating DGCL into a GNN system follows the paper's Listing 1: every
//! layer calls `graph_allgather` to refresh remote embeddings (layer 0,
//! whose input never changes, once per run), then runs the unchanged
//! single-device layer; the backward pass routes remote
//! gradients back through the reversed plan; model weights are
//! synchronised with an allreduce (the paper delegates this to
//! Horovod/DDP as GNN models are small).
//!
//! Because all baselines are algorithmically equivalent (§7), the
//! reproduction's correctness criterion is *numerical parity*: distributed
//! training must match single-device training up to floating-point
//! reduction order, which [`train_distributed`] and [`train_single`] let
//! tests verify directly.

use dgcl_gnn::loss::mse_loss;
use dgcl_gnn::{Architecture, GnnNetwork};
use dgcl_graph::khop::GraphError;
use dgcl_graph::sample::seed_batches;
use dgcl_graph::CsrGraph;
use dgcl_sim::BackendKind;
use dgcl_tensor::Matrix;

use crate::backend::backend_for;
use crate::checkpoint::{Checkpoint, CheckpointConfig};
use crate::collectives::{AllreduceAlgo, AllreducePolicy};
use crate::comm_info::CommInfo;
use crate::error::{ClusterError, RuntimeError};
use crate::fabric::FabricConfig;
use crate::featcache::{CachePolicy, CacheStatsSnapshot, ClusterCache};
use crate::runtime::{run_cluster_with, DeviceHandle};
use crate::sampling::{graph_err, train_set, BlockSteps};

/// Training hyper-parameters.
#[derive(Debug, Clone)]
pub struct TrainConfig {
    /// GNN architecture.
    pub arch: Architecture,
    /// Layer widths: input first, one entry per layer output after it.
    pub dims: Vec<usize>,
    /// Number of epochs.
    pub epochs: usize,
    /// SGD learning rate.
    pub lr: f32,
    /// Seed for weight initialisation (shared by all replicas).
    pub weight_seed: u64,
    /// No effect: every step runs on its rank's own thread. Kept only
    /// because the frozen `e2e` benchmark sets it.
    pub overlap: bool,
    /// Aggregation backend override. `None` (the default) runs whatever
    /// [`CommInfo::backend`] recorded at build time; `Some(kind)` forces
    /// a backend for this run (parity tests compare the same info
    /// through both). CAGNET replication must divide the device count.
    pub backend: Option<BackendKind>,
    /// Mini-batch sampled training. `None` (the default) trains
    /// full-batch; `Some` switches every epoch to seeded, fanout-bounded
    /// mini-batches (see [`crate::sampling::SamplingConfig`]). The
    /// fanout list's length must equal the layer count. With every
    /// fanout ∞ and one batch covering every vertex the sampled run is
    /// bitwise identical to the full-batch one.
    pub sampling: Option<crate::sampling::SamplingConfig>,
    /// Hot-vertex remote feature cache override. `None` (the default)
    /// runs the policy recorded at build time
    /// ([`crate::BuildOptions::feature_cache`]); `Some(policy)` forces
    /// one for this run. Caching changes the gather *volume* of
    /// sampled-blocks runs only — full-neighbourhood runs fetch each
    /// remote feature row once per run and never consult the cache —
    /// and every run is bitwise identical to [`CachePolicy::Off`].
    pub feature_cache: Option<CachePolicy>,
}

impl TrainConfig {
    /// A config with learning rate `1e-3` and a fixed weight seed.
    pub fn new(arch: Architecture, dims: &[usize], epochs: usize) -> Self {
        Self {
            arch,
            dims: dims.to_vec(),
            epochs,
            lr: 1e-3,
            weight_seed: 17,
            overlap: true,
            backend: None,
            sampling: None,
            feature_cache: None,
        }
    }
}

/// The outcome of a training run.
#[derive(Debug, Clone)]
pub struct TrainReport {
    /// Global loss after each epoch's forward pass.
    pub epoch_losses: Vec<f32>,
    /// Final output embeddings in global vertex order.
    pub outputs: Matrix,
    /// Cluster-total feature-cache counters, when a cache was active
    /// (`None` for single-device runs and [`CachePolicy::Off`]; zero
    /// traffic for full-neighbourhood runs, which never consult it).
    pub cache: Option<CacheStatsSnapshot>,
}

/// Trains on a single device (the reference the distributed run must
/// match).
///
/// # Panics
///
/// Panics if shapes are inconsistent.
pub fn train_single(
    graph: &CsrGraph,
    features: &Matrix,
    targets: &Matrix,
    cfg: &TrainConfig,
) -> TrainReport {
    let mut net = GnnNetwork::new(cfg.arch, &cfg.dims, cfg.weight_seed);
    let mut losses = Vec::with_capacity(cfg.epochs);
    for _ in 0..cfg.epochs {
        let out = net.forward(graph, features);
        let (loss, grad) = mse_loss(&out, targets);
        losses.push(loss);
        net.backward(graph, &grad);
        net.step(cfg.lr);
    }
    let outputs = net.forward(graph, features);
    TrainReport {
        epoch_losses: losses,
        outputs,
        cache: None,
    }
}

/// Trains across the simulated devices of `info`, with graph-allgather
/// between layers, reversed-plan gradient scatter, and gradient
/// allreduce before each step.
///
/// # Errors
///
/// [`ClusterError`] if any device fails, or with
/// [`RuntimeError::Diverged`] on every rank once an epoch's summed loss
/// is not finite; no failure mode hangs.
///
/// # Panics
///
/// Panics if `features`/`targets` row counts do not match the graph.
pub fn train_distributed(
    info: &CommInfo,
    graph: &CsrGraph,
    features: &Matrix,
    targets: &Matrix,
    cfg: &TrainConfig,
) -> Result<TrainReport, ClusterError> {
    train_distributed_with(info, graph, features, targets, cfg, FabricConfig::default())
}

/// [`train_distributed`] with an explicit fabric configuration — the
/// chaos suite uses this to inject [`crate::fault::FaultPlan`]s and to
/// shrink the collective deadline.
///
/// The gradient allreduce algorithm is a non-default
/// `fabric_config.allreduce` policy if the caller set one, otherwise an
/// [`AlgorithmSelector`](crate::collectives::AlgorithmSelector) tuned
/// offline for `info`'s topology and device count. The tuning runs once
/// per `info` and is reused by every later call with the same
/// `collective_chunk`.
///
/// # Errors
///
/// [`ClusterError`] if any device fails, or with
/// [`RuntimeError::Diverged`] on every rank once an epoch's summed loss
/// is not finite; no failure mode hangs.
///
/// # Panics
///
/// Panics if `features`/`targets` row counts do not match the graph.
pub fn train_distributed_with(
    info: &CommInfo,
    graph: &CsrGraph,
    features: &Matrix,
    targets: &Matrix,
    cfg: &TrainConfig,
    fabric_config: FabricConfig,
) -> Result<TrainReport, ClusterError> {
    train_distributed_resumable(
        info,
        graph,
        features,
        targets,
        cfg,
        fabric_config,
        None,
        None,
    )
}

/// Per-run context shared by every rank's [`device_body`]: the inputs,
/// the resolved backend and cache, where in the global epoch range this
/// attempt starts, the losses of epochs completed before it (from the
/// resumed checkpoint), and where rank 0 publishes checkpoints.
pub(crate) struct EpochCtx<'a> {
    pub(crate) cfg: &'a TrainConfig,
    pub(crate) graph: &'a CsrGraph,
    /// The global feature and target matrices; each rank copies its own
    /// rows ([`CommInfo::device_rows`]) on its own thread.
    features: &'a Matrix,
    targets: &'a Matrix,
    /// The initial replica every rank clones, built once at the driver
    /// so a resumed attempt restores the checkpoint exactly once.
    net0: &'a GnnNetwork,
    backend_kind: BackendKind,
    /// The per-rank feature caches, materialised once at the driver;
    /// every rank reads the same copies.
    pub(crate) cache: Option<&'a ClusterCache>,
    start_epoch: usize,
    prior_losses: &'a [f32],
    checkpoints: Option<&'a CheckpointConfig>,
}

impl EpochCtx<'_> {
    /// Rank 0's post-step hook: publishes the in-memory checkpoint for
    /// every completed epoch and serializes to the sink on its cadence.
    /// Weights are identical on all ranks after the allreduce-then-step,
    /// so one publisher suffices; any crash earlier in the epoch fails
    /// the allreduce and never reaches this point.
    fn publish(&self, rank: usize, net: &GnnNetwork, new_losses: &[f32]) {
        let Some(ck) = self.checkpoints else { return };
        if rank != 0 {
            return;
        }
        let mut losses = self.prior_losses.to_vec();
        losses.extend_from_slice(new_losses);
        let ckpt = Checkpoint::capture(net, losses);
        if let Some(spec) = &ck.spec {
            if spec.every > 0 && ckpt.epochs_done.is_multiple_of(spec.every) {
                spec.sink.store(ckpt.serialize());
            }
        }
        ck.store.publish(ckpt);
    }
}

/// [`train_distributed_with`] that can start from a [`Checkpoint`] and
/// publish new ones — the primitive under [`crate::recovery`]'s elastic
/// driver loop.
///
/// `resume` restores the snapshot's parameters and loss history and
/// runs only the remaining `resume.epochs_done..cfg.epochs` epochs; the
/// returned [`TrainReport`] covers the *full* history (prior losses
/// first), so a resumed run is directly comparable — bitwise — to an
/// uninterrupted one. The checkpoint is partition-independent: it may
/// have been captured on a different device count than `info` has.
///
/// `checkpoints` makes rank 0 publish an in-memory snapshot after every
/// completed epoch, plus a serialized one on the configured cadence.
///
/// # Errors
///
/// [`ClusterError`] if any device fails, or with
/// [`RuntimeError::Diverged`] on every rank once an epoch's summed loss
/// is not finite; no failure mode hangs.
///
/// # Panics
///
/// Panics if `features`/`targets` row counts do not match the graph, if
/// the checkpoint does not fit the configured model shape, or if it has
/// already passed `cfg.epochs`.
#[allow(clippy::too_many_arguments)]
pub fn train_distributed_resumable(
    info: &CommInfo,
    graph: &CsrGraph,
    features: &Matrix,
    targets: &Matrix,
    cfg: &TrainConfig,
    mut fabric_config: FabricConfig,
    resume: Option<&Checkpoint>,
    checkpoints: Option<&CheckpointConfig>,
) -> Result<TrainReport, ClusterError> {
    // Autotune only over the default policy; an explicit caller policy
    // (chaos tests pinning an algorithm) stands.
    if matches!(
        fabric_config.allreduce,
        AllreducePolicy::Fixed(AllreduceAlgo::Flat)
    ) {
        let chunk_bytes = 4 * fabric_config.collective_chunk as u64;
        fabric_config.allreduce =
            AllreducePolicy::Auto(info.allreduce_selector(chunk_bytes).into_owned());
    }
    assert_eq!(features.rows(), graph.num_vertices(), "feature rows");
    assert_eq!(targets.rows(), graph.num_vertices(), "target rows");
    if let Some(scfg) = &cfg.sampling {
        assert_eq!(
            scfg.fanouts.len(),
            cfg.dims.len() - 1,
            "one fanout per layer"
        );
    }
    let backend_kind = cfg.backend.unwrap_or(info.backend);
    if let BackendKind::Cagnet { replication } = backend_kind {
        assert!(
            replication >= 1 && info.num_devices().is_multiple_of(replication),
            "CAGNET replication {replication} must divide {} devices",
            info.num_devices()
        );
    }
    let cache_policy = cfg.feature_cache.unwrap_or(info.feature_cache_policy);
    info.build_for_run(graph, backend_kind, cache_policy);
    let cache = ClusterCache::build(info, features, cache_policy);
    let mut net0 = GnnNetwork::new(cfg.arch, &cfg.dims, cfg.weight_seed);
    let (start_epoch, prior_losses) = match resume {
        Some(ckpt) => {
            assert!(
                ckpt.epochs_done <= cfg.epochs,
                "checkpoint at epoch {} is past the {}-epoch target",
                ckpt.epochs_done,
                cfg.epochs
            );
            ckpt.restore(&mut net0);
            (ckpt.epochs_done, ckpt.losses.clone())
        }
        None => (0, Vec::new()),
    };
    let ctx = EpochCtx {
        cfg,
        graph,
        features,
        targets,
        net0: &net0,
        backend_kind,
        cache: cache.as_ref(),
        start_epoch,
        prior_losses: &prior_losses,
        checkpoints,
    };
    let results = run_cluster_with(info, fabric_config, |handle| device_body(&handle, &ctx))?;
    let mut losses = prior_losses;
    losses.extend_from_slice(&results[0].0);
    let blocks: Vec<Matrix> = results.into_iter().map(|(_, out)| out).collect();
    let outputs = info.collect_outputs(&blocks);
    Ok(TrainReport {
        epoch_losses: losses,
        outputs,
        cache: cache.as_ref().map(ClusterCache::snapshot),
    })
}

/// The epoch-invariant-work rule, for every step kind, in one place.
/// Layer 0 reads the raw features, which no step ever updates, so on
/// every rank alike (op counters stay aligned):
///
/// * *backward*, an input that does not learn has no gradient worth
///   computing: the layer accumulates its parameter gradients only
///   ([`Layer::backward_params`]) and its aggregate gradient is neither
///   formed nor exchanged back to the owners of its input rows;
/// * *forward*, an input that never changes has an aggregate that never
///   changes: [`device_body`] computes it at the run's first forward and
///   every later forward reruns the layer's update over the aggregate the
///   layer caches ([`Layer::forward_again`]), neither recomputed nor
///   copied.
pub(crate) fn input_learns(layer: usize) -> bool {
    layer > 0
}

/// The end of every optimiser step, whatever its kind: sums this rank's
/// `local_loss` and every layer's gradients across ranks in **one**
/// inline allreduce (the paper hands this weight sync to Horovod/DDP:
/// GNN models are small), installs the summed gradients, steps, and
/// returns the cluster-summed loss. The fabric folds each matrix in rank
/// order, so every rank installs the identical gradients.
pub(crate) fn sync_step(
    handle: &DeviceHandle<'_>,
    net: &mut GnnNetwork,
    local_loss: f32,
    lr: f32,
) -> Result<f32, RuntimeError> {
    let mut mats: Vec<Matrix> = net
        .layers()
        .iter()
        .flat_map(|l| l.gradients().into_iter().cloned())
        .collect();
    mats.push(Matrix::full(1, 1, local_loss));
    let reduced = handle.allreduce(mats)?;
    let (loss, grads) = reduced.split_last().expect("loss entry present");
    let mut cursor = 0;
    for layer in net.layers_mut() {
        let count = layer.gradients().len();
        layer.set_gradients(&grads[cursor..cursor + count]);
        cursor += count;
    }
    net.step(lr);
    Ok(loss[(0, 0)])
}

/// One rank's training program — the paper's Listing 1 as a single
/// scaffold: per epoch, the fault check, the epoch's steps (each ending
/// in [`sync_step`]), loss accumulation and [`EpochCtx::publish`]; then
/// the final inference forward. The **step kind** parameterises it:
/// *full-neighbourhood* (full-batch, or sampling with every fanout ∞:
/// whole-graph forward and backward, the loss masked to the step's seed
/// batch; no sampling is one unmasked step per epoch) or *sampled
/// blocks* (finite fanouts: [`BlockSteps::step`], one feature fetch and
/// one allreduce per step).
///
/// The rank first copies its own feature and target rows out of the
/// global matrices, as a GPU loads its partition over its own link, so
/// no driver thread copies every rank's rows before any rank starts.
///
/// Listing 1 gathers before every layer of every step, but layer 0's
/// input never changes ([`input_learns`]), so its distributed aggregate
/// is computed once per run, at the first full-neighbourhood forward,
/// and stays in layer 0's cache: every later one reruns only the layer's
/// update over it ([`Layer::forward_again`]). A sampled-blocks step
/// replaces that cache with its own block's aggregate, but such a run
/// takes its first full-neighbourhood forward after its last step. The
/// aggregate is partition-dependent state of this attempt, never
/// checkpointed.
fn device_body(
    handle: &DeviceHandle<'_>,
    ctx: &EpochCtx<'_>,
) -> Result<(Vec<f32>, Matrix), RuntimeError> {
    let rank = handle.rank;
    let cfg = ctx.cfg;
    let agg_kind = cfg.arch.agg_kind();
    let info = handle.comm_info();
    let features = info.device_rows(rank, ctx.features);
    let targets = info.device_rows(rank, ctx.targets);
    let mut net = ctx.net0.clone();
    let scfg = cfg.sampling.as_ref();
    let seeds = scfg.map_or_else(Vec::new, |s| train_set(s, ctx.graph));
    if let Some(&bad) = seeds
        .iter()
        .find(|&&v| v as usize >= ctx.graph.num_vertices())
    {
        let e = GraphError::SeedOutOfRange {
            seed: bad,
            num_vertices: ctx.graph.num_vertices(),
        };
        return handle.poison_on_err(Err(graph_err(rank, &e)));
    }
    let backend = backend_for(ctx.backend_kind);
    let mut blocks = scfg
        .filter(|s| !s.is_exact())
        .map(|s| BlockSteps::new(handle, ctx, s, &features, &targets));
    let mut agg0_cached = false;
    let mut forward = |net: &mut GnnNetwork| -> Result<Matrix, RuntimeError> {
        let (first, rest) = net.layers_mut().split_first_mut().expect("≥ 1 layer");
        let mut h = if agg0_cached {
            first.forward_again(&features)
        } else {
            let agg = backend.agg_forward(handle, &features, agg_kind)?;
            agg0_cached = true;
            first.forward_agg(&features, agg)
        };
        for layer in rest {
            let agg = backend.agg_forward(handle, &h, agg_kind)?;
            h = layer.forward_agg(&h, agg);
        }
        Ok(h)
    };
    let mut losses = Vec::with_capacity(cfg.epochs - ctx.start_epoch);
    for epoch in ctx.start_epoch..cfg.epochs {
        handle.check_epoch_fault(epoch)?;
        // One step per mini-batch; plain full-batch is one unmasked step.
        let batches = scfg.map(|s| seed_batches(&seeds, s.batch_size, s.seed, epoch));
        // mse is a *sum*, so step losses add across ranks and batches.
        let mut epoch_loss = 0.0f32;
        for bi in 0..batches.as_ref().map_or(1, Vec::len) {
            epoch_loss += if let (Some(blocks), Some(batches)) = (&mut blocks, &batches) {
                blocks.step(&mut net, epoch, batches, bi)?
            } else {
                let out = forward(&mut net)?;
                // `mse_loss` with the rows outside the batch zeroed
                // *before* the norm: same element order, same single
                // accumulator, so an all-covering (or absent) mask is
                // bitwise the unmasked loss.
                let mut grad = out.sub(&targets);
                if let Some(batch) = batches.as_ref().map(|b| &b[bi]) {
                    let mut batch = batch.clone();
                    batch.sort_unstable();
                    let owned = &info.pg.local[rank];
                    for (j, v) in owned.iter().enumerate() {
                        if batch.binary_search(v).is_err() {
                            grad.row_mut(j).fill(0.0);
                        }
                    }
                }
                let local_loss = 0.5 * grad.norm_sq();
                // Backward deepest layer first, routing each layer's
                // aggregate gradient through the backend's adjoint
                // exchange.
                for (l, layer) in net.layers_mut().iter_mut().enumerate().rev() {
                    if input_learns(l) {
                        let (grad_agg, direct) = layer.backward_agg(&grad);
                        // The backend folds remote consumers into the
                        // aggregate half; the direct (self-path) half
                        // lands on the local rows afterwards.
                        grad = backend.agg_backward(handle, grad_agg, agg_kind)?;
                        if let Some(direct) = direct {
                            grad.add_assign(&direct);
                        }
                    } else {
                        layer.backward_params(&grad);
                    }
                }
                sync_step(handle, &mut net, local_loss, cfg.lr)?
            };
            // Every rank holds the same summed loss bits, so every rank
            // stops at this step and none waits on a peer.
            if !epoch_loss.is_finite() {
                return Err(RuntimeError::Diverged {
                    epoch,
                    loss: epoch_loss,
                });
            }
        }
        losses.push(epoch_loss);
        ctx.publish(rank, &net, &losses);
    }
    let out = forward(&mut net)?;
    Ok((losses, out))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::comm_info::{build_comm_info, BuildOptions};
    use dgcl_graph::Dataset;
    use dgcl_tensor::XavierInit;
    use dgcl_topology::Topology;

    fn parity_case(arch: Architecture, topo: Topology, seed: u64) {
        let graph = Dataset::WikiTalk.generate(0.0005, seed);
        let n = graph.num_vertices();
        let info = build_comm_info(&graph, topo, BuildOptions::default());
        let mut init = XavierInit::new(seed);
        let features = init.features(n, 6);
        let targets = init.features(n, 3);
        let mut cfg = TrainConfig::new(arch, &[6, 5, 3], 3);
        if arch == Architecture::Gin {
            // GIN's sum aggregation explodes on hub-heavy graphs with the
            // default rate; parity only needs stable trajectories.
            cfg.lr = 1e-6;
        }
        let single = train_single(&graph, &features, &targets, &cfg);
        let dist =
            train_distributed(&info, &graph, &features, &targets, &cfg).expect("healthy cluster");
        for (e, (a, b)) in single
            .epoch_losses
            .iter()
            .zip(&dist.epoch_losses)
            .enumerate()
        {
            assert!(
                (a - b).abs() < 1e-2 * a.abs().max(1.0),
                "{arch:?} epoch {e}: single loss {a} vs distributed {b}"
            );
        }
        let diff = single.outputs.max_abs_diff(&dist.outputs);
        assert!(
            diff < 5e-3,
            "{arch:?}: output divergence {diff} after training"
        );
    }

    #[test]
    fn gcn_parity_on_fig6() {
        parity_case(Architecture::Gcn, Topology::fig6(), 11);
    }

    #[test]
    fn commnet_parity_on_fig6() {
        parity_case(Architecture::CommNet, Topology::fig6(), 12);
    }

    #[test]
    fn gin_parity_on_fig6() {
        parity_case(Architecture::Gin, Topology::fig6(), 13);
    }

    #[test]
    fn gcn_parity_on_dgx1() {
        parity_case(Architecture::Gcn, Topology::dgx1(), 14);
    }

    #[test]
    fn sage_parity_on_fig6() {
        parity_case(Architecture::Sage, Topology::fig6(), 15);
    }

    #[test]
    fn loss_decreases_distributed() {
        let graph = Dataset::WebGoogle.generate(0.0005, 21);
        let n = graph.num_vertices();
        let info = build_comm_info(&graph, Topology::fig6(), BuildOptions::default());
        let mut init = XavierInit::new(2);
        let features = init.features(n, 8);
        let targets = init.features(n, 4);
        let mut cfg = TrainConfig::new(Architecture::Gcn, &[8, 6, 4], 5);
        cfg.lr = 5e-4;
        let report =
            train_distributed(&info, &graph, &features, &targets, &cfg).expect("healthy cluster");
        assert!(
            report.epoch_losses.last() < report.epoch_losses.first(),
            "losses: {:?}",
            report.epoch_losses
        );
    }
}
