//! Baseline communication schemes the paper compares against (§7).
//!
//! * [`peer_to_peer`] — every GPU fetches required embeddings directly
//!   from their owners, all at once (the ROC/Lux approach).
//! * [`swap`] — embeddings are exchanged through CPU main memory
//!   (the NeuGraph approach): every GPU dumps all local embeddings, then
//!   every GPU loads its remote set from wherever it was dumped.
//! * [`replication`] — cross-partition neighbourhoods are replicated so
//!   no communication happens at all (the Medusa approach), at the price
//!   of duplicated storage and computation.
//!
//! The module also provides the planner *ablation* [`unicast_plan`] (no
//! fusion), used to quantify SPST's design choices.

use dgcl_graph::khop::k_hop_closure;
use dgcl_graph::{CsrGraph, VertexId};
use dgcl_partition::PartitionedGraph;
use dgcl_topology::Topology;

use crate::cost::CostState;
use crate::plan::CommPlan;

/// Builds the peer-to-peer plan: every demand `V_ij` is one direct,
/// concurrent transfer in stage 0.
pub fn peer_to_peer(pg: &PartitionedGraph) -> CommPlan {
    let mut edges = Vec::new();
    for (i, row) in pg.demands.iter().enumerate() {
        for (j, vs) in row.iter().enumerate() {
            for &v in vs {
                edges.push((v, i, j, 0));
            }
        }
    }
    CommPlan::from_edges(pg.num_parts, edges)
}

/// Ablation: no fusion — a vertex needed by `r` destinations is sent `r`
/// times from the source, one stage per destination, serialising what the
/// SPST tree would parallelise and fuse. This models the cost of treating
/// each (source, destination) demand as an isolated unicast.
pub fn unicast_plan(pg: &PartitionedGraph) -> CommPlan {
    let mut edges = Vec::new();
    for (v, src, dsts) in pg.multicast_demands() {
        for (k, &d) in dsts.iter().enumerate() {
            edges.push((v, src as usize, d as usize, k));
        }
    }
    CommPlan::from_edges(pg.num_parts, edges)
}

/// The swap (NeuGraph-style) schedule: stage 0 dumps every GPU's local
/// embeddings to its socket's host memory; stage 1 loads every GPU's
/// remote set from the owner's dump location.
#[derive(Debug, Clone)]
pub struct SwapPlan {
    /// Per GPU: bytes dumped in stage 0.
    pub dump_bytes: Vec<u64>,
    /// Stage-1 loads: `(owner gpu, loading gpu, bytes)`.
    pub loads: Vec<(usize, usize, u64)>,
}

/// Builds the swap schedule for a partitioned graph.
///
/// NeuGraph writes *all* vertex embeddings back to CPU memory after each
/// layer (its chain-transfer optimisation batches the writes but does not
/// reduce the volume), which is why the paper finds swap pays for the full
/// graph rather than just the cut.
pub fn swap(pg: &PartitionedGraph, bytes_per_vertex: u64) -> SwapPlan {
    let dump_bytes = pg
        .local
        .iter()
        .map(|l| l.len() as u64 * bytes_per_vertex)
        .collect();
    let mut loads = Vec::new();
    for (j, remotes) in pg.remote.iter().enumerate() {
        // Group by owner to model one batched read per (owner, loader).
        let mut per_owner: Vec<u64> = vec![0; pg.num_parts];
        for &v in remotes {
            per_owner[pg.owner(v) as usize] += bytes_per_vertex;
        }
        for (i, b) in per_owner.into_iter().enumerate() {
            if b > 0 {
                loads.push((i, j, b));
            }
        }
    }
    SwapPlan { dump_bytes, loads }
}

impl SwapPlan {
    /// Evaluates the schedule under the staged cost model: stage 0 for
    /// dumps (GPU to local host memory), stage 1 for loads (owner's host
    /// memory to the consuming GPU).
    ///
    /// # Panics
    ///
    /// Panics if the topology lacks host memory reachable from some GPU.
    pub fn evaluate(&self, topology: &Topology) -> CostState {
        let mut cs = CostState::new(topology, 2);
        for (gpu, &bytes) in self.dump_bytes.iter().enumerate() {
            if bytes == 0 {
                continue;
            }
            let mem = topology
                .host_memory_of(gpu)
                .expect("swap requires host memory in the topology");
            let route = topology
                .route_nodes(topology.gpu_node(gpu), mem)
                .expect("host memory reachable");
            cs.add(0, &route, bytes);
        }
        for &(owner, loader, bytes) in &self.loads {
            let mem = topology
                .host_memory_of(owner)
                .expect("swap requires host memory in the topology");
            let route = topology
                .route_nodes(mem, topology.gpu_node(loader))
                .expect("host memory reachable");
            cs.add(1, &route, bytes);
        }
        cs
    }

    /// Estimated swap communication time in seconds.
    pub fn estimated_time(&self, topology: &Topology) -> f64 {
        self.evaluate(topology).total_time()
    }
}

/// The replication scheme: per-device storage and per-layer compute
/// workload when each device keeps the K-hop closure of its partition.
#[derive(Debug, Clone)]
pub struct ReplicationPlan {
    /// Vertices stored per device (local + replicated).
    pub stored_vertices: Vec<usize>,
    /// Adjacency entries stored per device (sum of stored vertices'
    /// degrees), for memory accounting.
    pub stored_edges: Vec<usize>,
    /// Replication factor: total stored / graph vertices (Figure 4).
    pub factor: f64,
    /// Per device, per layer `l` (0-based, layer `l+1` of `K`): vertices
    /// whose embeddings must be computed and the edges aggregated to do
    /// so. Layer `l` computes the `(K - 1 - l)`-hop closure.
    pub layer_work: Vec<Vec<(usize, usize)>>,
}

/// Builds the replication plan for a `layers`-deep GNN.
///
/// # Panics
///
/// Panics if `layers == 0` or the partition does not match the graph.
pub fn replication(graph: &CsrGraph, pg: &PartitionedGraph, layers: usize) -> ReplicationPlan {
    assert!(layers > 0, "a GNN has at least one layer");
    let n = graph.num_vertices();
    let mut stored_vertices = Vec::with_capacity(pg.num_parts);
    let mut stored_edges = Vec::with_capacity(pg.num_parts);
    let mut layer_work = Vec::with_capacity(pg.num_parts);
    for d in 0..pg.num_parts {
        let seeds: &[VertexId] = &pg.local[d];
        // Closures for hops 0..=layers; closure[h] is the membership mask
        // of the h-hop neighbourhood.
        let closures: Vec<Vec<bool>> = (0..=layers)
            .map(|h| k_hop_closure(graph, seeds, h).expect("partition seeds are in range"))
            .collect();
        stored_vertices.push(closures[layers].iter().filter(|&&m| m).count());
        stored_edges.push(
            closures[layers]
                .iter()
                .enumerate()
                .filter(|(_, &m)| m)
                .map(|(v, _)| graph.out_degree(v as VertexId))
                .sum(),
        );
        let mut work = Vec::with_capacity(layers);
        for l in 0..layers {
            // Layer l (0-based) must produce embeddings for the
            // (layers - 1 - l)-hop closure.
            let need = &closures[layers - 1 - l];
            let vertices = need.iter().filter(|&&m| m).count();
            let mut edge_count = 0usize;
            for (v, &m) in need.iter().enumerate() {
                if m {
                    edge_count += graph.out_degree(v as VertexId);
                }
            }
            work.push((vertices, edge_count));
        }
        layer_work.push(work);
    }
    let total: usize = stored_vertices.iter().sum();
    ReplicationPlan {
        stored_vertices,
        stored_edges,
        factor: if n == 0 { 0.0 } else { total as f64 / n as f64 },
        layer_work,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::validate_plan;
    use dgcl_graph::{Dataset, GraphBuilder};
    use dgcl_partition::multilevel::kway;

    fn small_pg() -> (CsrGraph, PartitionedGraph) {
        let g = Dataset::WebGoogle.generate(0.001, 3);
        let parts = kway(&g, 4, 3);
        let pg = PartitionedGraph::new(&g, parts, 4);
        (g, pg)
    }

    #[test]
    fn peer_to_peer_is_single_stage_and_valid() {
        let (_, pg) = small_pg();
        let plan = peer_to_peer(&pg);
        assert_eq!(plan.num_stages, 1);
        assert!(validate_plan(&plan, &pg).is_ok());
        assert_eq!(plan.total_transfers(), pg.total_demand());
    }

    #[test]
    fn unicast_plan_is_valid_but_not_cheaper() {
        let (_, pg) = small_pg();
        let topo = dgcl_topology::Topology::fig6();
        let uni = unicast_plan(&pg);
        let p2p = peer_to_peer(&pg);
        assert!(validate_plan(&uni, &pg).is_ok());
        assert!(
            uni.estimated_time(&topo, 1024) >= p2p.estimated_time(&topo, 1024),
            "serialised unicast should not beat concurrent p2p"
        );
    }

    #[test]
    fn swap_dumps_everything() {
        let (_, pg) = small_pg();
        let plan = swap(&pg, 100);
        let dumped: u64 = plan.dump_bytes.iter().sum();
        assert_eq!(dumped, pg.partition.len() as u64 * 100);
    }

    #[test]
    fn swap_loads_cover_remote_sets() {
        let (_, pg) = small_pg();
        let plan = swap(&pg, 100);
        let loaded: u64 = plan.loads.iter().map(|&(_, _, b)| b).sum();
        let remote_total: usize = pg.remote.iter().map(|r| r.len()).sum();
        assert_eq!(loaded, remote_total as u64 * 100);
    }

    #[test]
    fn swap_cost_exceeds_p2p_for_sparse_graphs() {
        // With a small cut, p2p moves far fewer bytes than a full dump.
        let (_, pg) = small_pg();
        let topo = dgcl_topology::Topology::dgx1_subset(4);
        let swap_t = swap(&pg, 1024).estimated_time(&topo);
        let p2p_t = peer_to_peer(&pg).estimated_time(&topo, 1024);
        assert!(swap_t > p2p_t, "swap {swap_t} vs p2p {p2p_t}");
    }

    #[test]
    fn replication_factor_matches_khop_helper() {
        let (g, pg) = small_pg();
        let plan = replication(&g, &pg, 2);
        let expect =
            dgcl_graph::khop::replication_factor(&g, &pg.partition, pg.num_parts, 2).unwrap();
        assert!((plan.factor - expect).abs() < 1e-12);
        assert!(plan.factor > 1.0);
    }

    #[test]
    fn replication_layer_work_shrinks_with_depth() {
        // Later layers need smaller closures: layer_work is non-increasing
        // in vertices.
        let (g, pg) = small_pg();
        let plan = replication(&g, &pg, 3);
        for work in &plan.layer_work {
            for w in work.windows(2) {
                assert!(w[0].0 >= w[1].0);
            }
        }
    }

    #[test]
    fn replication_last_layer_is_local_only() {
        let (g, pg) = small_pg();
        let plan = replication(&g, &pg, 2);
        for (d, work) in plan.layer_work.iter().enumerate() {
            assert_eq!(work.last().expect("layers > 0").0, pg.local[d].len());
        }
    }

    #[test]
    fn dense_graph_replicates_almost_everything() {
        // Reddit-like density: the 2-hop closure covers nearly the whole
        // graph from any partition (the paper's Figure 4b observation).
        let g = Dataset::Reddit.generate(0.004, 1);
        let parts = kway(&g, 4, 1);
        let pg = PartitionedGraph::new(&g, parts, 4);
        let plan = replication(&g, &pg, 2);
        assert!(
            plan.factor > 3.0,
            "dense graph should replicate heavily, factor {}",
            plan.factor
        );
    }

    #[test]
    fn star_graph_replication_exact() {
        // Star with centre in part 0 and two leaves in part 1.
        let mut b = GraphBuilder::new(3);
        b.add_edge(0, 1);
        b.add_edge(0, 2);
        let g = b.build_symmetric();
        let pg = PartitionedGraph::new(&g, vec![0, 1, 1], 2);
        let plan = replication(&g, &pg, 1);
        // Part 0 stores centre + both leaves; part 1 stores leaves +
        // centre: factor = 6 / 3.
        assert!((plan.factor - 2.0).abs() < 1e-12);
    }
}
