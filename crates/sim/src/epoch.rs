//! End-to-end per-epoch simulation for every communication method.
//!
//! Combines partitioning, planning, the fluid network simulation, the
//! compute model and the memory model into the per-epoch and
//! communication-time numbers that Figures 7–9 and Tables 5–9 report.
//!
//! Experiments usually run on scaled-down graph instances; the
//! [`EpochConfig::upscale`] factor projects volumes and work back to full
//! scale (payload bytes, vertex/edge counts and memory all scale
//! linearly, while the plan structure and the contention pattern are
//! scale-invariant), so the reported milliseconds are directly comparable
//! with the paper's tables.

use dgcl_graph::khop::k_hop_closure;
use dgcl_graph::CsrGraph;
use dgcl_partition::hierarchical::{hierarchical, induced_subgraph};
use dgcl_partition::multilevel::kway;
use dgcl_partition::PartitionedGraph;
use dgcl_plan::baselines::{peer_to_peer, replication, swap};
use dgcl_plan::{spst_plan, CommPlan, SendRecvTables};
use dgcl_topology::Topology;

use crate::compute::{GnnModel, GpuProfile};
use crate::memory::{fits, training_bytes};
use crate::network::{simulate_flows, simulate_plan, simulate_plan_pipelined, Flow};
use crate::transport::stage_barrier_seconds;

/// The communication schemes compared in §7.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Method {
    /// SPST-planned communication (this paper).
    Dgcl,
    /// Direct peer-to-peer fetches (ROC/Lux style).
    PeerToPeer,
    /// Exchange through CPU memory (NeuGraph style).
    Swap,
    /// Full K-hop replication, no communication (Medusa style).
    Replication,
    /// Replication across machines, DGCL planning within each machine
    /// (Table 5's DGCL-R).
    DgclR,
}

impl Method {
    /// Display name matching the paper.
    pub fn name(self) -> &'static str {
        match self {
            Method::Dgcl => "DGCL",
            Method::PeerToPeer => "Peer-to-peer",
            Method::Swap => "Swap",
            Method::Replication => "Replication",
            Method::DgclR => "DGCL-R",
        }
    }
}

/// Configuration of one simulated training setup.
#[derive(Debug, Clone, Copy)]
pub struct EpochConfig {
    /// GNN model.
    pub model: GnnModel,
    /// Number of GNN layers (the paper uses 2).
    pub layers: usize,
    /// Input feature width (Table 4).
    pub feature_size: usize,
    /// Hidden width (Table 4).
    pub hidden_size: usize,
    /// GPU performance profile.
    pub profile: GpuProfile,
    /// Full-scale projection factor (1 / graph scale).
    pub upscale: f64,
    /// Whether the backward pass uses the non-atomic sub-stage split.
    pub non_atomic: bool,
    /// Seed for partitioning and planning.
    pub seed: u64,
}

impl EpochConfig {
    /// A 2-layer configuration on V100s with no upscaling.
    pub fn new(model: GnnModel, feature_size: usize, hidden_size: usize) -> Self {
        Self {
            model,
            layers: 2,
            feature_size,
            hidden_size,
            profile: GpuProfile::v100(),
            upscale: 1.0,
            non_atomic: true,
            seed: 42,
        }
    }

    /// `(fin, fout)` per layer.
    pub fn layer_dims(&self) -> Vec<(usize, usize)> {
        (0..self.layers)
            .map(|l| {
                if l == 0 {
                    (self.feature_size, self.hidden_size)
                } else {
                    (self.hidden_size, self.hidden_size)
                }
            })
            .collect()
    }
}

/// Simulated per-epoch outcome.
#[derive(Debug, Clone)]
pub struct EpochBreakdown {
    /// The method simulated.
    pub method: Method,
    /// Embedding/gradient passing time per epoch, in seconds.
    pub comm_seconds: f64,
    /// Computation time per epoch (critical path), in seconds.
    pub compute_seconds: f64,
    /// Whether any device exceeds its memory capacity (at full scale).
    pub oom: bool,
    /// Average per-GPU communication volume per epoch in bytes.
    pub avg_comm_volume_bytes: u64,
    /// Planning wall-clock (zero for plan-free methods).
    pub planning_seconds: f64,
}

impl EpochBreakdown {
    /// Total per-epoch time in seconds.
    pub fn total_seconds(&self) -> f64 {
        self.comm_seconds + self.compute_seconds
    }

    /// An OOM placeholder result.
    fn oom(method: Method) -> Self {
        Self {
            method,
            comm_seconds: 0.0,
            compute_seconds: 0.0,
            oom: true,
            avg_comm_volume_bytes: 0,
            planning_seconds: 0.0,
        }
    }
}

/// Partitions `graph` for `topology` the way the paper does: hierarchical
/// (machine-first) when the topology spans machines, flat k-way otherwise.
pub fn partition_for(graph: &CsrGraph, topology: &Topology, seed: u64) -> PartitionedGraph {
    let groups = topology.gpus_by_machine();
    let sizes: Vec<usize> = groups.iter().map(|g| g.len()).collect();
    let parts = if topology.num_gpus() == 1 {
        vec![0u32; graph.num_vertices()]
    } else {
        hierarchical(graph, &sizes, seed)
    };
    PartitionedGraph::new(graph, parts, topology.num_gpus())
}

fn scaled(count: usize, upscale: f64) -> usize {
    (count as f64 * upscale).round() as usize
}

/// Per-epoch compute time for partitioned (non-replicated) training:
/// every device computes exactly its local vertices each layer; per layer
/// the slowest device gates progress (allgather is a barrier).
fn partitioned_compute_seconds(pg: &PartitionedGraph, cfg: &EpochConfig) -> f64 {
    let mut total = 0.0;
    for &(fin, fout) in &cfg.layer_dims() {
        let mut fwd_max = 0.0f64;
        let mut bwd_max = 0.0f64;
        for d in 0..pg.num_parts {
            let lg = pg.local_graph(d);
            let vertices = scaled(lg.num_local, cfg.upscale);
            let edges = scaled(lg.graph.num_edges(), cfg.upscale);
            fwd_max = fwd_max.max(
                cfg.profile
                    .layer_forward_seconds(cfg.model, vertices, edges, fin, fout),
            );
            bwd_max = bwd_max.max(
                cfg.profile
                    .layer_backward_seconds(cfg.model, vertices, edges, fin, fout),
            );
        }
        total += fwd_max + bwd_max;
    }
    total
}

/// Per-epoch communication cost of a staged plan, by part.
struct PlanCommParts {
    /// Forward + backward wire time across all layers.
    transfer_seconds: f64,
    /// Time folding received gradients into the embedding buffer,
    /// across all layers.
    apply_seconds: f64,
    /// Extra sub-stage barrier cost of the non-atomic split.
    substage_seconds: f64,
    /// Average per-GPU volume in bytes.
    avg_volume: u64,
}

impl PlanCommParts {
    fn total_seconds(&self) -> f64 {
        self.transfer_seconds + self.apply_seconds + self.substage_seconds
    }
}

/// Communication cost for one forward + backward epoch of a staged plan:
/// each layer runs the plan forward (embedding allgather) and reversed
/// (gradient scatter), with the gradient-apply cost and, when enabled,
/// the extra sub-stage barriers of the non-atomic split. With
/// `chunk_rows` set, transfers go through the chunk-pipelined model
/// ([`simulate_plan_pipelined`]) instead of the barriered one.
fn plan_comm_parts(
    plan: &CommPlan,
    pg: &PartitionedGraph,
    topology: &Topology,
    cfg: &EpochConfig,
    chunk_rows: Option<usize>,
) -> PlanCommParts {
    let mut transfer = 0.0;
    let mut apply_total = 0.0;
    let mut substage_total = 0.0;
    let mut volume_total = 0u64;
    let reversed = plan.reversed();
    let extra_substages = if cfg.non_atomic {
        SendRecvTables::from_plan(&reversed)
            .split_substages()
            .num_substages
            .saturating_sub(1)
    } else {
        0
    };
    let run = |p: &CommPlan, bytes: u64| match chunk_rows {
        Some(rows) => simulate_plan_pipelined(p, topology, bytes, rows).total_seconds,
        None => simulate_plan(p, topology, bytes).total_seconds,
    };
    for &(fin, _) in &cfg.layer_dims() {
        let bytes = (4.0 * fin as f64 * cfg.upscale) as u64;
        let fwd = run(plan, bytes);
        let bwd = run(&reversed, bytes);
        // In the backward pass, each device folds the received gradients
        // into its embedding buffer; atomics throttle the receive path
        // of every stage, sub-stages pay extra barriers instead.
        let recv_max = plan
            .sent_bytes_per_gpu(bytes)
            .into_iter()
            .max()
            .unwrap_or(0);
        let (bwd_transfer, apply, substage_cost) = if cfg.non_atomic {
            (
                bwd,
                cfg.profile.gradient_apply_seconds(recv_max, false),
                extra_substages as f64 * stage_barrier_seconds(),
            )
        } else {
            (
                bwd * cfg.profile.atomic_comm_slowdown(),
                cfg.profile.gradient_apply_seconds(recv_max, true),
                0.0,
            )
        };
        transfer += fwd + bwd_transfer;
        apply_total += apply;
        substage_total += substage_cost;
        volume_total += 2 * plan.total_transfers() as u64 * bytes;
    }
    PlanCommParts {
        transfer_seconds: transfer,
        apply_seconds: apply_total,
        substage_seconds: substage_total,
        avg_volume: volume_total / pg.num_parts.max(1) as u64,
    }
}

/// Barriered communication time for one epoch (see [`plan_comm_parts`]).
fn plan_comm_seconds(
    plan: &CommPlan,
    pg: &PartitionedGraph,
    topology: &Topology,
    cfg: &EpochConfig,
) -> (f64, u64) {
    let parts = plan_comm_parts(plan, pg, topology, cfg, None);
    (parts.total_seconds(), parts.avg_volume)
}

/// Barriered vs pipelined epoch time for DGCL's plan on one setup (the
/// `BENCH_overlap.json` experiment).
#[derive(Debug, Clone)]
pub struct OverlapBreakdown {
    /// Number of simulated devices.
    pub devices: usize,
    /// Per-epoch compute time (identical in both schedules).
    pub compute_seconds: f64,
    /// Communication per epoch under the barriered schedule.
    pub comm_barriered_seconds: f64,
    /// Communication per epoch under the chunk-pipelined schedule.
    pub comm_pipelined_seconds: f64,
}

impl OverlapBreakdown {
    /// Epoch time with barriered collectives and serial communication.
    pub fn barriered_epoch_seconds(&self) -> f64 {
        self.compute_seconds + self.comm_barriered_seconds
    }

    /// Epoch time with chunk-pipelined collectives and serial
    /// communication.
    pub fn pipelined_epoch_seconds(&self) -> f64 {
        self.compute_seconds + self.comm_pipelined_seconds
    }
}

/// Simulates one DGCL epoch twice — barriered (PR 2's serial schedule)
/// and pipelined (chunked transfers via [`simulate_plan_pipelined`]) —
/// and reports both. Compute and gradient-apply are the same in both:
/// only the transfers differ.
///
/// # Panics
///
/// Panics if the configuration is inconsistent (zero layers).
pub fn simulate_overlap(
    graph: &CsrGraph,
    topology: &Topology,
    cfg: &EpochConfig,
    chunk_rows: usize,
) -> OverlapBreakdown {
    assert!(cfg.layers > 0, "a GNN has at least one layer");
    let pg = partition_for(graph, topology, cfg.seed);
    let compute = partitioned_compute_seconds(&pg, cfg);
    let outcome = spst_plan(&pg, topology, 4 * cfg.feature_size as u64, cfg.seed);
    let barriered = plan_comm_parts(&outcome.plan, &pg, topology, cfg, None);
    let pipelined = plan_comm_parts(&outcome.plan, &pg, topology, cfg, Some(chunk_rows));
    OverlapBreakdown {
        devices: topology.num_gpus(),
        compute_seconds: compute,
        comm_barriered_seconds: barriered.total_seconds(),
        comm_pipelined_seconds: pipelined.total_seconds(),
    }
}

fn partitioned_memory_ok(pg: &PartitionedGraph, cfg: &EpochConfig) -> bool {
    (0..pg.num_parts).all(|d| {
        let lg = pg.local_graph(d);
        let need = training_bytes(
            scaled(lg.num_total(), cfg.upscale) as u64,
            scaled(lg.graph.num_edges(), cfg.upscale) as u64,
            cfg.feature_size,
            cfg.hidden_size,
            cfg.layers,
        );
        fits(need, cfg.profile.memory_bytes)
    })
}

/// Simulates one training epoch of `method` over `graph` on `topology`.
///
/// # Panics
///
/// Panics if the configuration is inconsistent (e.g. zero layers) or the
/// topology lacks host memory when `method` is [`Method::Swap`].
pub fn simulate_epoch(
    method: Method,
    graph: &CsrGraph,
    topology: &Topology,
    cfg: &EpochConfig,
) -> EpochBreakdown {
    assert!(cfg.layers > 0, "a GNN has at least one layer");
    match method {
        Method::DgclR => return simulate_dgcl_r(graph, topology, cfg),
        Method::Replication => return simulate_replication(graph, topology, cfg),
        _ => {}
    }
    let pg = partition_for(graph, topology, cfg.seed);
    if !partitioned_memory_ok(&pg, cfg) {
        return EpochBreakdown::oom(method);
    }
    let compute = partitioned_compute_seconds(&pg, cfg);
    let (comm, volume, planning) = match method {
        Method::Dgcl => {
            let outcome = spst_plan(&pg, topology, 4 * cfg.feature_size as u64, cfg.seed);
            let (c, v) = plan_comm_seconds(&outcome.plan, &pg, topology, cfg);
            (c, v, outcome.planning_seconds)
        }
        Method::PeerToPeer => {
            let plan = peer_to_peer(&pg);
            let (c, v) = plan_comm_seconds(&plan, &pg, topology, cfg);
            (c, v, 0.0)
        }
        Method::Swap => {
            let mut comm = 0.0;
            let mut volume = 0u64;
            for &(fin, _) in &cfg.layer_dims() {
                let bytes = (4.0 * fin as f64 * cfg.upscale) as u64;
                let sp = swap(&pg, bytes);
                comm += 2.0 * swap_network_seconds(&sp, topology);
                let dumped: u64 = sp.dump_bytes.iter().sum();
                let loaded: u64 = sp.loads.iter().map(|&(_, _, b)| b).sum();
                volume += 2 * (dumped + loaded);
            }
            (comm, volume / pg.num_parts as u64, 0.0)
        }
        Method::Replication | Method::DgclR => unreachable!("handled above"),
    };
    EpochBreakdown {
        method,
        comm_seconds: comm,
        compute_seconds: compute,
        oom: false,
        avg_comm_volume_bytes: volume,
        planning_seconds: planning,
    }
}

/// Runs the swap schedule through the fluid network simulation: stage 0
/// dumps, stage 1 loads.
fn swap_network_seconds(sp: &dgcl_plan::baselines::SwapPlan, topology: &Topology) -> f64 {
    let mut total = 0.0;
    let dump_flows: Vec<Flow> = sp
        .dump_bytes
        .iter()
        .enumerate()
        .filter(|&(_, &b)| b > 0)
        .map(|(gpu, &bytes)| Flow {
            route: topology
                .route_nodes(
                    topology.gpu_node(gpu),
                    topology.host_memory_of(gpu).expect("host memory present"),
                )
                .expect("host memory reachable"),
            bytes,
            overhead_seconds: 15e-6,
            tag: gpu,
        })
        .collect();
    if !dump_flows.is_empty() {
        total += simulate_flows(topology, &dump_flows).0 + stage_barrier_seconds();
    }
    let load_flows: Vec<Flow> = sp
        .loads
        .iter()
        .enumerate()
        .map(|(i, &(owner, loader, bytes))| Flow {
            route: topology
                .route_nodes(
                    topology.host_memory_of(owner).expect("host memory present"),
                    topology.gpu_node(loader),
                )
                .expect("host memory reachable"),
            bytes,
            overhead_seconds: 15e-6,
            tag: i,
        })
        .collect();
    if !load_flows.is_empty() {
        total += simulate_flows(topology, &load_flows).0 + stage_barrier_seconds();
    }
    total
}

fn simulate_replication(
    graph: &CsrGraph,
    topology: &Topology,
    cfg: &EpochConfig,
) -> EpochBreakdown {
    let pg = partition_for(graph, topology, cfg.seed);
    let plan = replication(graph, &pg, cfg.layers);
    // Memory: every device stores its full K-hop closure.
    let ok = (0..pg.num_parts).all(|d| {
        let need = training_bytes(
            scaled(plan.stored_vertices[d], cfg.upscale) as u64,
            scaled(plan.stored_edges[d], cfg.upscale) as u64,
            cfg.feature_size,
            cfg.hidden_size,
            cfg.layers,
        );
        fits(need, cfg.profile.memory_bytes)
    });
    if !ok {
        return EpochBreakdown::oom(Method::Replication);
    }
    let dims = cfg.layer_dims();
    let mut compute = 0.0;
    for (l, &(fin, fout)) in dims.iter().enumerate() {
        let mut fwd_max = 0.0f64;
        let mut bwd_max = 0.0f64;
        for work in &plan.layer_work {
            let (vertices, edges) = work[l];
            let v = scaled(vertices, cfg.upscale);
            let e = scaled(edges, cfg.upscale);
            fwd_max = fwd_max.max(
                cfg.profile
                    .layer_forward_seconds(cfg.model, v, e, fin, fout),
            );
            bwd_max = bwd_max.max(
                cfg.profile
                    .layer_backward_seconds(cfg.model, v, e, fin, fout),
            );
        }
        compute += fwd_max + bwd_max;
    }
    let _ = topology;
    EpochBreakdown {
        method: Method::Replication,
        comm_seconds: 0.0,
        compute_seconds: compute,
        oom: false,
        avg_comm_volume_bytes: 0,
        planning_seconds: 0.0,
    }
}

/// DGCL-R (Table 5): machines replicate each other's K-hop frontier so no
/// traffic crosses the slow inter-machine link; inside each machine the
/// replicated subgraph is partitioned across the local GPUs with DGCL
/// planning the intra-machine exchange.
fn simulate_dgcl_r(graph: &CsrGraph, topology: &Topology, cfg: &EpochConfig) -> EpochBreakdown {
    let groups = topology.gpus_by_machine();
    if groups.len() <= 1 {
        return simulate_epoch(Method::Dgcl, graph, topology, cfg);
    }
    let machine_parts = kway(graph, groups.len(), cfg.seed);
    let mut comm_max = 0.0f64;
    let mut compute_max = 0.0f64;
    let mut planning = 0.0;
    let mut volume = 0u64;
    let mut oom = false;
    for (m, group) in groups.iter().enumerate() {
        let owned: Vec<dgcl_graph::VertexId> = machine_parts
            .iter()
            .enumerate()
            .filter(|&(_, &p)| p as usize == m)
            .map(|(v, _)| v as dgcl_graph::VertexId)
            .collect();
        // The machine stores and computes over the K-hop closure of its
        // share (per-layer shrinking closures like plain replication).
        let closures: Vec<Vec<bool>> = (0..=cfg.layers)
            .map(|h| k_hop_closure(graph, &owned, h).expect("owned vertices are in range"))
            .collect();
        let members: Vec<dgcl_graph::VertexId> = closures[cfg.layers]
            .iter()
            .enumerate()
            .filter(|(_, &x)| x)
            .map(|(v, _)| v as dgcl_graph::VertexId)
            .collect();
        let (sub, _) = induced_subgraph(graph, &members);
        let g = group.len();
        let sub_parts = kway(&sub, g.min(sub.num_vertices().max(1)), cfg.seed + m as u64);
        let sub_pg = PartitionedGraph::new(&sub, sub_parts, g);
        // Memory per GPU inside the machine.
        let mem_ok = (0..g).all(|d| {
            let lg = sub_pg.local_graph(d);
            let need = training_bytes(
                scaled(lg.num_total(), cfg.upscale) as u64,
                scaled(lg.graph.num_edges(), cfg.upscale) as u64,
                cfg.feature_size,
                cfg.hidden_size,
                cfg.layers,
            );
            fits(need, cfg.profile.memory_bytes)
        });
        if !mem_ok {
            oom = true;
            continue;
        }
        // Intra-machine planning and exchange on a single-machine
        // topology of the same size.
        let intra_topo = Topology::dgx1_subset(g.min(8));
        let outcome = spst_plan(&sub_pg, &intra_topo, 4 * cfg.feature_size as u64, cfg.seed);
        planning += outcome.planning_seconds;
        let (comm, vol) = plan_comm_seconds(&outcome.plan, &sub_pg, &intra_topo, cfg);
        volume += vol;
        // Compute: per layer, the machine must produce the shrinking
        // closure; work spreads over its GPUs following the intra-machine
        // sub-partition (inheriting its realistic imbalance — the slowest
        // GPU gates each layer, exactly as in partitioned training).
        let closure_total = members.len().max(1);
        let max_local = (0..g).map(|d| sub_pg.local[d].len()).max().unwrap_or(0);
        let max_edges = (0..g)
            .map(|d| sub_pg.local_graph(d).graph.num_edges())
            .max()
            .unwrap_or(0);
        let dims = cfg.layer_dims();
        let mut compute = 0.0;
        for (l, &(fin, fout)) in dims.iter().enumerate() {
            let need = &closures[cfg.layers - 1 - l];
            let vertices: usize = need.iter().filter(|&&x| x).count();
            let edges: usize = need
                .iter()
                .enumerate()
                .filter(|(_, &x)| x)
                .map(|(v, _)| graph.out_degree(v as dgcl_graph::VertexId))
                .sum();
            // Fraction of the stored closure this layer touches; the
            // per-GPU share follows the heaviest sub-partition.
            let v_frac = vertices as f64 / closure_total as f64;
            let e_frac = edges as f64 / sub.num_edges().max(1) as f64;
            let v = scaled((max_local as f64 * v_frac) as usize, cfg.upscale);
            let e = scaled((max_edges as f64 * e_frac) as usize, cfg.upscale);
            compute += cfg
                .profile
                .layer_forward_seconds(cfg.model, v, e, fin, fout)
                + cfg
                    .profile
                    .layer_backward_seconds(cfg.model, v, e, fin, fout);
        }
        comm_max = comm_max.max(comm);
        compute_max = compute_max.max(compute);
    }
    if oom {
        return EpochBreakdown::oom(Method::DgclR);
    }
    EpochBreakdown {
        method: Method::DgclR,
        comm_seconds: comm_max,
        compute_seconds: compute_max,
        oom: false,
        avg_comm_volume_bytes: volume / topology.num_gpus() as u64,
        planning_seconds: planning,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dgcl_graph::Dataset;

    fn cfg_for(d: Dataset, model: GnnModel, scale: f64) -> EpochConfig {
        let stats = d.stats();
        let mut c = EpochConfig::new(model, stats.feature_size, stats.hidden_size);
        c.upscale = 1.0 / scale;
        c
    }

    #[test]
    fn dgcl_beats_peer_to_peer_on_dgx1() {
        let scale = 0.002;
        let graph = Dataset::WebGoogle.generate(scale, 1);
        let topo = Topology::dgx1();
        let cfg = cfg_for(Dataset::WebGoogle, GnnModel::Gcn, scale);
        let dgcl = simulate_epoch(Method::Dgcl, &graph, &topo, &cfg);
        let p2p = simulate_epoch(Method::PeerToPeer, &graph, &topo, &cfg);
        assert!(!dgcl.oom && !p2p.oom);
        assert!(
            dgcl.comm_seconds < p2p.comm_seconds,
            "DGCL {} vs P2P {}",
            dgcl.comm_seconds,
            p2p.comm_seconds
        );
        // Compute time is identical: same partition, same engine.
        assert!((dgcl.compute_seconds - p2p.compute_seconds).abs() < 1e-9);
    }

    #[test]
    fn swap_is_worst_on_sparse_graphs() {
        let scale = 0.002;
        let graph = Dataset::WikiTalk.generate(scale, 2);
        let topo = Topology::dgx1();
        let cfg = cfg_for(Dataset::WikiTalk, GnnModel::Gcn, scale);
        let swap = simulate_epoch(Method::Swap, &graph, &topo, &cfg);
        let p2p = simulate_epoch(Method::PeerToPeer, &graph, &topo, &cfg);
        assert!(
            swap.comm_seconds > p2p.comm_seconds,
            "swap {} vs p2p {}",
            swap.comm_seconds,
            p2p.comm_seconds
        );
    }

    #[test]
    fn replication_ooms_on_com_orkut() {
        let scale = 0.002;
        let graph = Dataset::ComOrkut.generate(scale, 3);
        let topo = Topology::dgx1();
        let cfg = cfg_for(Dataset::ComOrkut, GnnModel::Gcn, scale);
        let rep = simulate_epoch(Method::Replication, &graph, &topo, &cfg);
        assert!(rep.oom, "Com-Orkut replication should OOM at full scale");
    }

    #[test]
    fn replication_runs_on_web_google_without_communication() {
        let scale = 0.002;
        let graph = Dataset::WebGoogle.generate(scale, 4);
        let topo = Topology::dgx1();
        let cfg = cfg_for(Dataset::WebGoogle, GnnModel::Gcn, scale);
        let rep = simulate_epoch(Method::Replication, &graph, &topo, &cfg);
        assert!(!rep.oom);
        assert_eq!(rep.comm_seconds, 0.0);
        assert!(rep.compute_seconds > 0.0);
    }

    #[test]
    fn single_gpu_has_no_communication() {
        let scale = 0.002;
        let graph = Dataset::WebGoogle.generate(scale, 5);
        let topo = Topology::dgx1_subset(1);
        let cfg = cfg_for(Dataset::WebGoogle, GnnModel::Gin, scale);
        let out = simulate_epoch(Method::Dgcl, &graph, &topo, &cfg);
        assert!(!out.oom);
        assert_eq!(out.comm_seconds, 0.0);
    }

    #[test]
    fn communication_grows_with_gpu_count() {
        // Figure 2: aggregate communication (and with slow links, time)
        // grows with the number of GPUs.
        let scale = 0.004;
        let graph = Dataset::Reddit.generate(scale, 6);
        let cfg = cfg_for(Dataset::Reddit, GnnModel::Gcn, scale);
        let t8 = simulate_epoch(Method::PeerToPeer, &graph, &Topology::dgx1_subset(8), &cfg);
        let t2 = simulate_epoch(Method::PeerToPeer, &graph, &Topology::dgx1_subset(2), &cfg);
        assert!(t8.comm_seconds > t2.comm_seconds);
    }

    #[test]
    fn dgcl_r_eliminates_cross_machine_traffic_cost() {
        let scale = 0.002;
        let graph = Dataset::WebGoogle.generate(scale, 7);
        let topo = Topology::dgx1_pair_ib();
        let cfg = cfg_for(Dataset::WebGoogle, GnnModel::Gcn, scale);
        let dgcl = simulate_epoch(Method::Dgcl, &graph, &topo, &cfg);
        let dgcl_r = simulate_epoch(Method::DgclR, &graph, &topo, &cfg);
        assert!(!dgcl.oom && !dgcl_r.oom);
        // Table 5: for GCN on the sparse Web-Google, replication across
        // machines wins because IB dominates DGCL's epoch.
        assert!(
            dgcl_r.total_seconds() < dgcl.total_seconds(),
            "DGCL-R {} vs DGCL {}",
            dgcl_r.total_seconds(),
            dgcl.total_seconds()
        );
    }

    #[test]
    fn pipelined_overlap_beats_barriered_epoch() {
        // The acceptance shape of BENCH_overlap.json: strictly faster
        // pipelined epochs on both datasets at 4 and 8 devices.
        let scale = 0.002;
        for dataset in [Dataset::WikiTalk, Dataset::WebGoogle] {
            let graph = dataset.generate(scale, 9);
            let cfg = cfg_for(dataset, GnnModel::Gcn, scale);
            for devices in [4usize, 8] {
                let topo = Topology::dgx1_subset(devices);
                let b = simulate_overlap(&graph, &topo, &cfg, 64);
                assert!(
                    b.pipelined_epoch_seconds() < b.barriered_epoch_seconds(),
                    "{dataset:?} at {devices} devices: pipelined {} vs barriered {}",
                    b.pipelined_epoch_seconds(),
                    b.barriered_epoch_seconds()
                );
            }
        }
    }

    #[test]
    fn non_atomic_backward_is_faster() {
        let scale = 0.002;
        let graph = Dataset::WebGoogle.generate(scale, 8);
        let topo = Topology::dgx1();
        let mut cfg = cfg_for(Dataset::WebGoogle, GnnModel::Gcn, scale);
        cfg.non_atomic = true;
        let fast = simulate_epoch(Method::Dgcl, &graph, &topo, &cfg);
        cfg.non_atomic = false;
        let slow = simulate_epoch(Method::Dgcl, &graph, &topo, &cfg);
        assert!(
            fast.comm_seconds < slow.comm_seconds,
            "non-atomic {} vs atomic {}",
            fast.comm_seconds,
            slow.comm_seconds
        );
    }
}
