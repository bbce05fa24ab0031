//! The system under test, seen from outside: the only file of the
//! benchmark that calls into the libraries. Every entry point used here
//! is listed in the README and in `BENCHMARK.json`'s companion notes, so
//! a refactor knows which signatures the benchmark freezes.
//!
//! Two kinds of function live here. The plain adapters (`inputs`,
//! `build`, `train`, `Server`, ...) are what the end-to-end metrics are
//! measured through. The `traced_*` and `*_micro` functions are the
//! benchmark's own copies of what `try_build_comm_info` and the
//! barriered device body compose, with a span around each call into a
//! layer's public function; they feed the per-layer metrics only.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use dgcl::collectives::{AlgorithmSelector, AllreducePolicy};
use dgcl::fabric::FabricConfig;
use dgcl::featcache::{CachePolicy, ClusterCache, FeatureCacheSets};
use dgcl::pipeline;
use dgcl::runtime::{run_cluster, run_cluster_with, DeviceHandle};
use dgcl::sampling::{GatherPlan, SamplingConfig};
use dgcl::schedule::DeviceSchedule;
use dgcl::serving::{InferenceServer, ServedFuture, ServingConfig};
use dgcl::trainer::{train_distributed, train_single};
use dgcl::{build_comm_info, BuildOptions, RuntimeError};
use dgcl_gnn::aggregate::{
    aggregate_mean, aggregate_mean_backward, aggregate_sum, aggregate_sum_backward,
};
use dgcl_gnn::loss::mse_loss;
use dgcl_gnn::{AggKind, Architecture, GnnNetwork};
use dgcl_graph::sample::{round_seed, seed_batches, BlockPool};
use dgcl_graph::{k_hop_closure_sparse, Dataset, VertexId};
use dgcl_partition::hierarchical::hierarchical;
use dgcl_partition::metrics::{balance, edge_cut};
use dgcl_partition::{CagnetBlocks, PartitionedGraph};
use dgcl_plan::plan::validate_plan;
use dgcl_plan::report::plan_stats;
use dgcl_plan::{spst_plan_with_config, SendRecvTables};
use dgcl_sim::{simulate_epoch, simulate_overlap, BackendSelector, EpochConfig, GnnModel, Method};
use dgcl_tensor::XavierInit;
use dgcl_topology::{LinkKind, Topology};

pub use dgcl::trainer::{TrainConfig, TrainReport};
pub use dgcl::CommInfo;
pub use dgcl_graph::CsrGraph;
pub use dgcl_tensor::Matrix;

use crate::stats::median;
use crate::trace::{RankTrace, NO_LAYER};
use crate::workloads::{
    DatasetId, Kind, Spec, TopoId, SAMPLED_BATCH, SAMPLED_FANOUT, SERVE_MAX_BATCH,
    SERVE_MAX_DELAY_US,
};

/// Per-layer metric values by catalog name.
pub type Layers = BTreeMap<String, f64>;

pub fn set(m: &mut Layers, name: &str, value: f64) {
    m.insert(name.to_string(), value);
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

pub fn cpus() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZero::get)
}

/// The kernels' worker count, left at the library's default.
pub fn compute_threads() -> usize {
    dgcl_tensor::compute_threads()
}

/// What a workload hands the library: a graph and two dense matrices.
pub struct Inputs {
    pub graph: CsrGraph,
    pub features: Matrix,
    pub targets: Matrix,
}

/// Generates a workload's inputs. Everything random derives from `seed`.
pub fn inputs(spec: &Spec, scale: f64, seed: u64) -> Inputs {
    let dataset = match spec.dataset {
        DatasetId::Reddit => Dataset::Reddit,
        DatasetId::WebGoogle => Dataset::WebGoogle,
        DatasetId::WikiTalk => Dataset::WikiTalk,
    };
    let graph = dataset.generate(scale, seed);
    let n = graph.num_vertices();
    let mut init = XavierInit::new(seed);
    let features = init.features(n, spec.dims[0]);
    let targets = init.features(n, spec.dims[2]);
    Inputs {
        graph,
        features,
        targets,
    }
}

pub fn topology(id: TopoId) -> Topology {
    match id {
        TopoId::Dgx1Subset(n) => Topology::dgx1_subset(n),
        TopoId::Dgx1PairIb => Topology::dgx1_pair_ib(),
    }
}

/// Training set-up as a user runs it: partition, plan, compile.
pub fn build(graph: &CsrGraph, topo: TopoId) -> CommInfo {
    build_comm_info(graph, topology(topo), BuildOptions::default())
}

/// Which of a workload's two configurations a call runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Variant {
    /// What `TrainConfig::new` gives, plus the workload's sampling.
    Default,
    /// Overlap off (full-batch) or feature cache off (sampled).
    Alt,
}

/// `TrainConfig::new` with the four fields the workloads set: `lr`,
/// `overlap`, `sampling` and `feature_cache`.
pub fn train_config(spec: &Spec, epochs: usize, variant: Variant) -> TrainConfig {
    let mut cfg = TrainConfig::new(Architecture::Gcn, &spec.dims, epochs);
    cfg.lr = spec.lr;
    match spec.kind {
        Kind::FullBatch => cfg.overlap = variant == Variant::Default,
        Kind::Sampled => {
            cfg.sampling = Some(SamplingConfig::new(
                SAMPLED_BATCH,
                vec![Some(SAMPLED_FANOUT); spec.dims.len() - 1],
            ));
            cfg.feature_cache = Some(match variant {
                Variant::Default => CachePolicy::Auto,
                Variant::Alt => CachePolicy::Off,
            });
        }
        Kind::Serving => unreachable!("serving workloads do not train"),
    }
    cfg
}

/// One `train_distributed` call.
///
/// # Errors
///
/// The cluster's failure, rendered.
pub fn train(info: &CommInfo, inp: &Inputs, cfg: &TrainConfig) -> Result<TrainReport, String> {
    train_distributed(info, &inp.graph, &inp.features, &inp.targets, cfg).map_err(|e| e.to_string())
}

/// The single-worker baseline of the same task.
pub fn train_one_device(inp: &Inputs, cfg: &TrainConfig) -> TrainReport {
    train_single(&inp.graph, &inp.features, &inp.targets, cfg)
}

/// Bytes that cross device boundaries in one full-batch epoch, computed
/// from the send tables and the model's shape, not measured: forward and
/// backward table entries times the row width of each GNN layer, and the
/// gradient-plus-loss payload every rank contributes to the allreduce.
pub fn wire_bytes(info: &CommInfo, cfg: &TrainConfig) -> (u64, u64, u64) {
    let widths = &cfg.dims[..cfg.dims.len() - 1];
    let row_bytes: u64 = widths.iter().map(|&w| 4 * w as u64).sum();
    let fwd = info.forward_tables.total_send_entries() as u64 * row_bytes;
    let bwd = info.backward_tables.total_send_entries() as u64 * row_bytes;
    let net = GnnNetwork::new(cfg.arch, &cfg.dims, cfg.weight_seed);
    let params: usize = net
        .layers()
        .iter()
        .flat_map(|l| l.parameters())
        .map(Matrix::len)
        .sum();
    let allreduce = 4 * (params as u64 + 1) * info.num_devices() as u64;
    (fwd, bwd, allreduce)
}

/// Calls one by one the public functions `try_build_comm_info` composes,
/// a span around each, and fills the offline layers' metrics.
///
/// # Panics
///
/// Panics on a single-GPU topology (no workload has one) or if the
/// planner's output fails validation or compilation.
pub fn traced_setup(inp: &Inputs, spec: &Spec, tr: &mut RankTrace, m: &mut Layers) {
    let graph = &inp.graph;
    let opts = BuildOptions::default();
    let topo = topology(spec.topo);
    let gpus = topo.num_gpus();
    assert!(gpus > 1, "training workloads are distributed");
    let sizes: Vec<usize> = topo.gpus_by_machine().iter().map(Vec::len).collect();
    let partition = tr.span_under("setup", "partition.hierarchical", 0, NO_LAYER, || {
        hierarchical(graph, &sizes, opts.seed)
    });
    let pg = tr.span_under("setup", "partition.relation", 0, NO_LAYER, || {
        PartitionedGraph::new(graph, partition, gpus)
    });
    tr.span_under("setup", "core.backend_choose", 0, NO_LAYER, || {
        let pairs: Vec<(usize, usize, u64)> = pg
            .demands
            .iter()
            .enumerate()
            .flat_map(|(i, row)| {
                row.iter()
                    .enumerate()
                    .map(move |(j, vs)| (i, j, vs.len() as u64 * opts.bytes_per_vertex))
            })
            .collect();
        BackendSelector::choose(
            &topo,
            gpus,
            graph.num_vertices(),
            opts.bytes_per_vertex,
            &pairs,
        )
    });
    tr.span_under("setup", "core.cagnet_blocks", 0, NO_LAYER, || {
        CagnetBlocks::new(graph, &pg)
    });
    tr.span_under("setup", "core.cache_score", 0, NO_LAYER, || {
        FeatureCacheSets::score(
            graph,
            &pg,
            (opts.bytes_per_vertex / 4).max(1) as usize,
            opts.feature_cache,
        )
    });
    let outcome = tr.span_under("setup", "plan.spst", 0, NO_LAYER, || {
        spst_plan_with_config(&pg, &topo, opts.bytes_per_vertex, opts.seed, opts.spst)
    });
    tr.span_under("setup", "plan.validate", 0, NO_LAYER, || {
        validate_plan(&outcome.plan, &pg).expect("SPST produces a valid plan");
    });
    let (fwd_tables, bwd_tables) = tr.span_under("setup", "plan.tables", 0, NO_LAYER, || {
        let fwd = SendRecvTables::from_plan(&outcome.plan);
        let bwd = fwd.reversed().split_substages();
        (fwd, bwd)
    });
    let (fwd_sched, bwd_sched) =
        tr.span_under("setup", "core.schedule_compile", 0, NO_LAYER, || {
            let fwd: Vec<DeviceSchedule> = (0..gpus)
                .map(|d| DeviceSchedule::forward(&fwd_tables, d, pg.local_graph(d)))
                .collect::<Result<_, _>>()
                .expect("forward tables compile");
            let bwd: Vec<DeviceSchedule> = (0..gpus)
                .map(|d| DeviceSchedule::backward(&bwd_tables, d, pg.local_graph(d)))
                .collect::<Result<_, _>>()
                .expect("backward tables compile");
            (fwd, bwd)
        });
    let chunks = tr.span_under("setup", "core.pipeline_compile", 0, NO_LAYER, || {
        let mut chunks = 0usize;
        for d in 0..gpus {
            let lg = pg.local_graph(d);
            let f = &fwd_sched[d];
            let b = &bwd_sched[d];
            chunks += pipeline::compile(f, lg.num_total() + f.scratch_rows, opts.chunk_rows)
                .actions
                .len();
            chunks += pipeline::compile(b, lg.num_local + b.scratch_rows, opts.chunk_rows)
                .actions
                .len();
        }
        chunks
    });
    for s in tr.spans().iter().filter(|s| s.parent == "setup") {
        // `plan.validate` has no catalog entry of its own: it is part of
        // what planning costs a user.
        let name = match s.phase {
            "plan.validate" => continue,
            phase => format!("{phase}_ms"),
        };
        set(m, &name, s.millis());
    }
    set(
        m,
        "partition.edge_cut",
        edge_cut(graph, &pg.partition) as f64,
    );
    set(m, "partition.balance", balance(&pg.partition, gpus));
    set(m, "partition.total_demand", pg.total_demand() as f64);
    set(m, "plan.cost_ms", outcome.cost.total_time() * 1e3);
    set(m, "plan.demands", outcome.stats.demands as f64);
    set(m, "plan.classes", outcome.stats.classes as f64);
    set(m, "plan.full_searches", outcome.stats.full_searches as f64);
    let stats = plan_stats(&outcome.plan, &topo);
    set(m, "plan.stages", stats.num_stages as f64);
    set(m, "plan.total_transfers", stats.total_transfers as f64);
    set(m, "plan.relay_transfers", stats.relay_transfers as f64);
    let row_bytes = 4 * spec.dims[0] as u64;
    let volume = |kinds: &[LinkKind]| -> f64 {
        stats
            .volume_by_kind
            .iter()
            .filter(|(k, _)| kinds.contains(k))
            .map(|(_, v)| (v * row_bytes) as f64)
            .sum::<f64>()
            // An empty float sum is -0.0.
            + 0.0
    };
    set(
        m,
        "plan.bytes.nvlink",
        volume(&[LinkKind::NvLink1, LinkKind::NvLink2]),
    );
    set(m, "plan.bytes.pcie", volume(&[LinkKind::Pcie]));
    set(m, "plan.bytes.qpi", volume(&[LinkKind::Qpi]));
    set(m, "plan.bytes.ib", volume(&[LinkKind::Infiniband]));
    set(
        m,
        "plan.table_bytes",
        (fwd_tables.memory_bytes() + bwd_tables.memory_bytes()) as f64,
    );
    set(m, "core.pipeline_chunks", chunks as f64);
}

/// One traced training call's outcome.
pub struct TracedRun {
    pub losses: Vec<f32>,
    pub outputs: Matrix,
    pub ranks: Vec<RankTrace>,
    /// Recycle-pool occupancy `(buffers, bytes)` when the run ended.
    pub pool: (usize, usize),
    pub tune_ms: f64,
    pub wall: Duration,
}

/// The benchmark's copy of what `train_distributed(overlap = false)`
/// does around and inside the barriered device body (the README's
/// Listing-1 loop), with a span around every call into a layer. It runs
/// the same arithmetic on the same fabric configuration, so its losses
/// and outputs must equal the library's bit for bit; the caller checks.
///
/// # Errors
///
/// The cluster's failure, rendered.
pub fn train_traced(
    info: &CommInfo,
    inp: &Inputs,
    cfg: &TrainConfig,
    origin: Instant,
) -> Result<TracedRun, String> {
    let t0 = Instant::now();
    let mut fabric = FabricConfig::default();
    let selector = AlgorithmSelector::tune(
        &info.topology,
        info.num_devices(),
        4 * fabric.collective_chunk as u64,
    );
    let tune_ms = ms(t0.elapsed());
    fabric.allreduce = AllreducePolicy::Auto(selector);
    let net0 = GnnNetwork::new(cfg.arch, &cfg.dims, cfg.weight_seed);
    let features = info.dispatch_features(&inp.features);
    let targets = info.dispatch_features(&inp.targets);
    let results = run_cluster_with(info, fabric, |handle| {
        device_body_traced(&handle, cfg, &net0, &features, &targets, origin)
    })
    .map_err(|e| e.to_string())?;
    let losses = results[0].0.clone();
    let pool = results[0].3;
    let mut blocks = Vec::with_capacity(results.len());
    let mut ranks = Vec::with_capacity(results.len());
    for (_, out, trace, _) in results {
        blocks.push(out);
        ranks.push(trace);
    }
    let outputs = info.collect_outputs(&blocks);
    Ok(TracedRun {
        losses,
        outputs,
        ranks,
        pool,
        tune_ms,
        wall: t0.elapsed(),
    })
}

type TracedRank = (Vec<f32>, Matrix, RankTrace, (usize, usize));

fn device_body_traced(
    handle: &DeviceHandle<'_>,
    cfg: &TrainConfig,
    net0: &GnnNetwork,
    features: &[Matrix],
    targets: &[Matrix],
    origin: Instant,
) -> Result<TracedRank, RuntimeError> {
    let rank = handle.rank;
    let lg = handle.local_graph();
    let kind = cfg.arch.agg_kind();
    let mut net = net0.clone();
    let layers = net.num_layers();
    let mut tr = RankTrace::new(rank, origin, (cfg.epochs + 1) * (7 * layers + 8));
    let mut losses = Vec::with_capacity(cfg.epochs);
    let forward = |net: &mut GnnNetwork, tr: &mut RankTrace, epoch: usize| {
        let mut h = features[rank].clone();
        for (l, layer) in net.layers_mut().iter_mut().enumerate() {
            let l_id = l as i32;
            let full = tr.span("gather", epoch, l_id, || {
                handle.graph_allgather_barriered(&h)
            })?;
            let agg = tr.span("agg_fwd", epoch, l_id, || match kind {
                AggKind::Sum => aggregate_sum(&lg.graph, &full, lg.num_local),
                AggKind::Mean => aggregate_mean(&lg.graph, &full, lg.num_local),
            });
            h = tr.span("dense_fwd", epoch, l_id, || layer.forward_agg(&h, agg));
        }
        Ok::<Matrix, RuntimeError>(h)
    };
    for epoch in 0..cfg.epochs {
        let e0 = tr.now();
        let out = forward(&mut net, &mut tr, epoch)?;
        let (local_loss, grad_out) =
            tr.span("loss", epoch, NO_LAYER, || mse_loss(&out, &targets[rank]));
        let mut grad = grad_out;
        for (l, layer) in net.layers_mut().iter_mut().enumerate().rev() {
            let l_id = l as i32;
            let (grad_agg, direct) =
                tr.span("dense_bwd", epoch, l_id, || layer.backward_agg(&grad));
            let grad_full = tr.span("agg_bwd", epoch, l_id, || match kind {
                AggKind::Sum => aggregate_sum_backward(&lg.graph, &grad_agg, lg.num_total()),
                AggKind::Mean => aggregate_mean_backward(&lg.graph, &grad_agg, lg.num_total()),
            });
            let mut back = tr.span("scatter", epoch, l_id, || {
                handle.scatter_backward_barriered(&grad_full)
            })?;
            if let Some(direct) = direct {
                back.add_assign(&direct);
            }
            grad = back;
        }
        let mats = tr.span("pack_grads", epoch, NO_LAYER, || {
            let mut mats: Vec<Matrix> = net
                .layers()
                .iter()
                .flat_map(|l| l.gradients().into_iter().cloned())
                .collect();
            mats.push(Matrix::full(1, 1, local_loss));
            mats
        });
        let reduced = tr.span("allreduce", epoch, NO_LAYER, || handle.allreduce(mats))?;
        tr.span("step", epoch, NO_LAYER, || {
            let (loss_mat, grads) = reduced.split_last().expect("loss entry present");
            losses.push(loss_mat[(0, 0)]);
            let mut cursor = 0;
            for layer in net.layers_mut() {
                let count = layer.gradients().len();
                layer.set_gradients(&grads[cursor..cursor + count]);
                cursor += count;
            }
            net.step(cfg.lr);
        });
        tr.close("epoch", "run", epoch, e0);
    }
    // The inference pass `train_distributed` ends with; epoch index
    // `cfg.epochs` keeps it out of the per-epoch means.
    let e0 = tr.now();
    let out = forward(&mut net, &mut tr, cfg.epochs)?;
    tr.close("final_forward", "run", cfg.epochs, e0);
    let pool = handle.fabric().pool_stats();
    Ok((losses, out, tr, pool))
}

/// Times the two heaviest kernels on rank 0's local graph with no
/// cluster running: busy time without other ranks contending for the
/// cores. Median of five calls each.
pub fn solo_kernels(info: &CommInfo, inp: &Inputs, cfg: &TrainConfig, m: &mut Layers) {
    let lg = info.pg.local_graph(0);
    let rows: Vec<usize> = lg.global_ids.iter().map(|&v| v as usize).collect();
    let full = inp.features.gather_rows(&rows);
    let h_local = full.head_rows(lg.num_local);
    let mut net = GnnNetwork::new(cfg.arch, &cfg.dims, cfg.weight_seed);
    let layer = &mut net.layers_mut()[0];
    let mut agg_ms = Vec::new();
    let mut bwd_ms = Vec::new();
    for _ in 0..5 {
        let t = Instant::now();
        let agg = std::hint::black_box(aggregate_mean(&lg.graph, &full, lg.num_local));
        agg_ms.push(ms(t.elapsed()));
        let out = layer.forward_agg(&h_local, agg);
        let t = Instant::now();
        std::hint::black_box(layer.backward_agg(&out));
        bwd_ms.push(ms(t.elapsed()));
    }
    set(m, "tensor.agg_fwd_solo_ms", median(&agg_ms));
    set(m, "tensor.dense_bwd_solo_ms", median(&bwd_ms));
}

/// Times, per mini-batch of one epoch and on every rank, the three calls
/// that only sampled training makes: `BlockPool::sample_blocks`,
/// `GatherPlan::build_cached` and `DeviceHandle::exchange_rows`.
///
/// # Errors
///
/// The cluster's failure, rendered.
pub fn sampled_micro(
    info: &CommInfo,
    inp: &Inputs,
    cfg: &TrainConfig,
    m: &mut Layers,
) -> Result<(), String> {
    let scfg = cfg.sampling.as_ref().expect("a sampled workload");
    let t = Instant::now();
    let cache =
        ClusterCache::build(info, &inp.features, CachePolicy::Auto).expect("Auto builds a cache");
    set(m, "featcache.build_ms", ms(t.elapsed()));
    let features = info.dispatch_features(&inp.features);
    let seeds: Vec<VertexId> = (0..inp.graph.num_vertices() as VertexId).collect();
    let batches = seed_batches(&seeds, scfg.batch_size, scfg.seed, 0);
    let per_rank = run_cluster(info, |handle| {
        let rank = handle.rank;
        let pg = &handle.comm_info().pg;
        let mut pool = BlockPool::new();
        let (mut sample, mut plan_t, mut exchange) =
            (Duration::ZERO, Duration::ZERO, Duration::ZERO);
        for (bi, batch) in batches.iter().enumerate() {
            let t = Instant::now();
            let blocks = pool
                .sample_blocks(
                    &inp.graph,
                    batch,
                    &scfg.fanouts,
                    round_seed(scfg.seed, 0, bi),
                )
                .map_err(|e| RuntimeError::Protocol {
                    rank,
                    detail: e.to_string(),
                })?;
            sample += t.elapsed();
            let t = Instant::now();
            let plan = GatherPlan::build_cached(
                &blocks[0].src,
                &pg.partition,
                pg.num_parts,
                rank,
                &pg.local[rank],
                &features[rank],
                &cache,
            );
            plan_t += t.elapsed();
            let t = Instant::now();
            std::hint::black_box(handle.exchange_rows(&plan)?);
            exchange += t.elapsed();
            pool.recycle(blocks);
        }
        Ok((sample, plan_t, exchange))
    })
    .map_err(|e| e.to_string())?;
    let calls = (per_rank.len() * batches.len()) as f64;
    let mean_us = |pick: fn(&(Duration, Duration, Duration)) -> Duration| {
        per_rank.iter().map(|r| pick(r).as_secs_f64()).sum::<f64>() * 1e6 / calls
    };
    set(m, "graph.sample_blocks_us", mean_us(|r| r.0));
    set(m, "sampling.gather_plan_us", mean_us(|r| r.1));
    set(m, "runtime.exchange_rows_us", mean_us(|r| r.2));
    set(m, "sampling.batches_per_epoch", batches.len() as f64);
    Ok(())
}

/// The simulator's prediction for the same graph, topology and widths,
/// projected to full scale the way the paper's Figures 7 and 8 are.
/// Returns the simulated DGCL epoch in milliseconds.
pub fn simulate(inp: &Inputs, spec: &Spec, scale: f64, m: &mut Layers) -> f64 {
    let topo = topology(spec.topo);
    let mut cfg = EpochConfig::new(GnnModel::Gcn, spec.dims[0], spec.dims[1]);
    cfg.layers = spec.dims.len() - 1;
    cfg.upscale = 1.0 / scale;
    cfg.seed = BuildOptions::default().seed;
    let dgcl = simulate_epoch(Method::Dgcl, &inp.graph, &topo, &cfg);
    let p2p = simulate_epoch(Method::PeerToPeer, &inp.graph, &topo, &cfg);
    let overlap = simulate_overlap(&inp.graph, &topo, &cfg, BuildOptions::default().chunk_rows);
    let epoch_ms = dgcl.total_seconds() * 1e3;
    set(m, "sim.epoch_ms", epoch_ms);
    set(m, "sim.comm_ms", dgcl.comm_seconds * 1e3);
    set(m, "sim.compute_ms", dgcl.compute_seconds * 1e3);
    set(m, "sim.p2p_epoch_ms", p2p.total_seconds() * 1e3);
    set(
        m,
        "sim.dgcl_vs_p2p",
        p2p.total_seconds() / dgcl.total_seconds(),
    );
    set(
        m,
        "sim.overlap_gain",
        overlap.barriered_epoch_seconds() / overlap.pipelined_epoch_seconds(),
    );
    epoch_ms
}

/// The model a serving workload serves.
pub fn serving_net(spec: &Spec, seed: u64) -> GnnNetwork {
    GnnNetwork::new(Architecture::Gcn, &spec.dims, seed)
}

/// The whole-graph forward pass served replies must equal row for row.
pub fn full_forward(net: &GnnNetwork, inp: &Inputs) -> Matrix {
    net.clone().forward(&inp.graph, &inp.features)
}

/// A running `InferenceServer` with the workload's batching limits.
pub struct Server {
    inner: InferenceServer,
}

/// A query in flight.
pub struct Pending {
    inner: ServedFuture,
}

/// A served embedding with the size and completion time of its flush.
pub struct Reply {
    pub embedding: Vec<f32>,
    pub batch_size: usize,
    pub completed: Instant,
}

impl Server {
    /// Serving set-up as a user runs it: `InferenceServer::spawn`.
    pub fn spawn(inp: &Inputs, net: &GnnNetwork) -> Self {
        let cfg = ServingConfig {
            max_batch: SERVE_MAX_BATCH,
            max_delay: Duration::from_micros(SERVE_MAX_DELAY_US),
            cache_rows: None,
        };
        Self {
            inner: InferenceServer::spawn(&inp.graph, &inp.features, net, cfg),
        }
    }

    /// Enqueues a query; `None` if the server refused it.
    pub fn query(&self, v: u32) -> Option<Pending> {
        self.inner.query(v).ok().map(|inner| Pending { inner })
    }
}

impl Pending {
    /// Blocks for the reply; `None` if the server died first.
    pub fn wait(self) -> Option<Reply> {
        self.inner.wait().map(|r| Reply {
            embedding: r.embedding,
            batch_size: r.batch_size,
            completed: r.completed,
        })
    }
}

/// Microseconds of one sparse one-hop closure over `seeds`, the graph
/// walk every flush of a two-layer model starts with. Median of 200.
pub fn khop_sparse_us(graph: &CsrGraph, seeds: &[u32]) -> f64 {
    let samples: Vec<f64> = (0..200)
        .map(|_| {
            let t = Instant::now();
            std::hint::black_box(k_hop_closure_sparse(graph, seeds, 1).expect("seeds in range"));
            t.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    median(&samples)
}
