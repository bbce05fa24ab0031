//! Communication plans: staged send steps plus validation.

use std::collections::HashMap;

use dgcl_graph::VertexId;
use dgcl_partition::PartitionedGraph;
use dgcl_topology::Topology;

use crate::cost::CostState;

/// One batched transfer: at `stage`, GPU `src` sends the embeddings of
/// `vertices` to GPU `dst` over their direct link.
///
/// This is the plan-level form of the paper's `(d_i, d_j, k, T^s_ij,
/// T^r_ij)` tuples; the receiver's table is the same vertex list seen from
/// the other side.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CommStep {
    /// Sending GPU rank.
    pub src: usize,
    /// Receiving GPU rank.
    pub dst: usize,
    /// Stage index (0-based tree depth of the transfer).
    pub stage: usize,
    /// Global ids of the vertices whose embeddings move.
    pub vertices: Vec<VertexId>,
}

/// A complete staged communication plan for one graph-allgather.
#[derive(Debug, Clone, Default)]
pub struct CommPlan {
    /// Number of GPUs the plan spans.
    pub num_gpus: usize,
    /// Number of stages (max stage index + 1).
    pub num_stages: usize,
    /// All transfers, sorted by (stage, src, dst).
    pub steps: Vec<CommStep>,
}

impl CommPlan {
    /// Assembles a plan from raw per-vertex tree edges
    /// `(vertex, src, dst, stage)`, batching vertices that share
    /// `(src, dst, stage)` into one step.
    pub fn from_edges(num_gpus: usize, edges: Vec<(VertexId, usize, usize, usize)>) -> Self {
        let mut buckets: HashMap<(usize, usize, usize), Vec<VertexId>> = HashMap::new();
        let mut num_stages = 0;
        for (v, src, dst, stage) in edges {
            num_stages = num_stages.max(stage + 1);
            buckets.entry((stage, src, dst)).or_default().push(v);
        }
        let mut steps: Vec<CommStep> = buckets
            .into_iter()
            .map(|((stage, src, dst), mut vertices)| {
                vertices.sort_unstable();
                vertices.dedup();
                CommStep {
                    src,
                    dst,
                    stage,
                    vertices,
                }
            })
            .collect();
        steps.sort_by_key(|s| (s.stage, s.src, s.dst));
        Self {
            num_gpus,
            num_stages,
            steps,
        }
    }

    /// Total number of vertex embeddings transferred (an embedding relayed
    /// over two links counts twice).
    pub fn total_transfers(&self) -> usize {
        self.steps.iter().map(|s| s.vertices.len()).sum()
    }

    /// Evaluates the plan under the staged cost model, returning the
    /// populated [`CostState`]. `bytes_per_vertex` is the embedding size
    /// (feature dimension times 4 bytes for `f32`).
    pub fn evaluate(&self, topology: &Topology, bytes_per_vertex: u64) -> CostState {
        let mut cs = CostState::new(topology, self.num_stages.max(1));
        for step in &self.steps {
            let route = topology.route(step.src, step.dst);
            cs.add(
                step.stage,
                route,
                step.vertices.len() as u64 * bytes_per_vertex,
            );
        }
        cs
    }

    /// Estimated communication time in seconds under the cost model.
    pub fn estimated_time(&self, topology: &Topology, bytes_per_vertex: u64) -> f64 {
        self.evaluate(topology, bytes_per_vertex).total_time()
    }

    /// The steps of a given stage.
    pub fn stage_steps(&self, stage: usize) -> impl Iterator<Item = &CommStep> {
        self.steps.iter().filter(move |s| s.stage == stage)
    }

    /// The backward-pass plan: stages run in reverse order and every
    /// transfer flips direction (gradients flow opposite to embeddings,
    /// §6.1).
    pub fn reversed(&self) -> CommPlan {
        let last = self.num_stages.saturating_sub(1);
        let mut steps: Vec<CommStep> = self
            .steps
            .iter()
            .map(|s| CommStep {
                src: s.dst,
                dst: s.src,
                stage: last - s.stage,
                vertices: s.vertices.clone(),
            })
            .collect();
        steps.sort_by_key(|s| (s.stage, s.src, s.dst));
        CommPlan {
            num_gpus: self.num_gpus,
            num_stages: self.num_stages,
            steps,
        }
    }

    /// Bytes each GPU sends in this plan (per-GPU outgoing volume).
    pub fn sent_bytes_per_gpu(&self, bytes_per_vertex: u64) -> Vec<u64> {
        let mut out = vec![0u64; self.num_gpus];
        for s in &self.steps {
            out[s.src] += s.vertices.len() as u64 * bytes_per_vertex;
        }
        out
    }
}

/// Errors detected by [`validate_plan`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PlanError {
    /// A step sends a vertex from a GPU that does not hold it at that
    /// stage.
    SendsUnheldVertex {
        /// The offending vertex.
        vertex: VertexId,
        /// The sending GPU.
        src: usize,
        /// The stage of the violation.
        stage: usize,
    },
    /// After all stages, a demand `(dst, vertex)` is unsatisfied.
    UnsatisfiedDemand {
        /// The vertex never delivered.
        vertex: VertexId,
        /// The GPU that needed it.
        dst: usize,
    },
    /// A step references an out-of-range GPU rank.
    BadRank {
        /// The offending rank.
        rank: usize,
    },
    /// A GPU receives a vertex it already holds. The forward executor
    /// would tolerate the duplicate write, but the reversed scatter
    /// folds the revisited GPU's accumulator into the chain twice and
    /// double-counts gradients — a plan must be a tree, not a walk.
    DuplicateDelivery {
        /// The vertex delivered twice.
        vertex: VertexId,
        /// The GPU receiving it again.
        dst: usize,
        /// The stage of the duplicate delivery.
        stage: usize,
    },
}

impl std::fmt::Display for PlanError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PlanError::SendsUnheldVertex { vertex, src, stage } => write!(
                f,
                "GPU {src} sends vertex {vertex} at stage {stage} without holding it"
            ),
            PlanError::UnsatisfiedDemand { vertex, dst } => {
                write!(f, "GPU {dst} never receives vertex {vertex}")
            }
            PlanError::BadRank { rank } => write!(f, "GPU rank {rank} out of range"),
            PlanError::DuplicateDelivery { vertex, dst, stage } => write!(
                f,
                "GPU {dst} receives vertex {vertex} again at stage {stage}"
            ),
        }
    }
}

impl std::error::Error for PlanError {}

/// Checks a plan against the communication relation by propagating vertex
/// availability stage by stage:
///
/// * a GPU may only forward embeddings it owns or has already received in
///   an earlier stage (tree edges at depth `k` run at stage `k`);
/// * no GPU receives a vertex twice — each per-vertex route must be a
///   tree, or the reversed gradient scatter double-counts;
/// * after the final stage, every demand `V_ij` must be satisfied.
pub fn validate_plan(plan: &CommPlan, pg: &PartitionedGraph) -> Result<(), PlanError> {
    let num_gpus = pg.num_parts;
    // The vertices available on each GPU, seeded with ownership.
    let mut holds = Held::new(num_gpus, pg.partition.len());
    for (v, &p) in pg.partition.iter().enumerate() {
        holds.insert(p as usize, v as VertexId);
    }
    for stage in 0..plan.num_stages {
        // All sends in a stage read the state at the *start* of the stage.
        let mut received: Vec<(usize, VertexId)> = Vec::new();
        for step in plan.stage_steps(stage) {
            if step.src >= num_gpus {
                return Err(PlanError::BadRank { rank: step.src });
            }
            if step.dst >= num_gpus {
                return Err(PlanError::BadRank { rank: step.dst });
            }
            for &v in &step.vertices {
                if !holds.contains(step.src, v) {
                    return Err(PlanError::SendsUnheldVertex {
                        vertex: v,
                        src: step.src,
                        stage,
                    });
                }
                received.push((step.dst, v));
            }
        }
        for (dst, v) in received {
            if !holds.insert(dst, v) {
                return Err(PlanError::DuplicateDelivery {
                    vertex: v,
                    dst,
                    stage,
                });
            }
        }
    }
    for (j, remotes) in pg.remote.iter().enumerate() {
        for &v in remotes {
            if !holds.contains(j, v) {
                return Err(PlanError::UnsatisfiedDemand { vertex: v, dst: j });
            }
        }
    }
    Ok(())
}

/// One bitset of the graph's vertices per GPU.
struct Held {
    /// `u64` words per GPU.
    words: usize,
    /// Vertex count; ids at or past it are never held.
    vertices: usize,
    bits: Vec<u64>,
}

impl Held {
    fn new(gpus: usize, vertices: usize) -> Self {
        let words = vertices.div_ceil(64);
        Self {
            words,
            vertices,
            bits: vec![0; gpus * words],
        }
    }

    fn slot(&self, gpu: usize, v: VertexId) -> (usize, u64) {
        let v = v as usize;
        (gpu * self.words + v / 64, 1 << (v % 64))
    }

    fn contains(&self, gpu: usize, v: VertexId) -> bool {
        if v as usize >= self.vertices {
            return false;
        }
        let (word, bit) = self.slot(gpu, v);
        self.bits[word] & bit != 0
    }

    /// Marks `v` held on `gpu`; `false` if it already was. `v` must be a
    /// vertex of the graph: only held vertices are sent, so every
    /// received one is.
    fn insert(&mut self, gpu: usize, v: VertexId) -> bool {
        let (word, bit) = self.slot(gpu, v);
        let fresh = self.bits[word] & bit == 0;
        self.bits[word] |= bit;
        fresh
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dgcl_graph::GraphBuilder;

    fn tiny_pg() -> PartitionedGraph {
        // 0-1 edge across two parts: each side needs the other vertex.
        let mut b = GraphBuilder::new(2);
        b.add_edge(0, 1);
        let g = b.build_symmetric();
        PartitionedGraph::new(&g, vec![0, 1], 2)
    }

    #[test]
    fn from_edges_batches_and_sorts() {
        let plan = CommPlan::from_edges(2, vec![(5, 0, 1, 0), (3, 0, 1, 0), (7, 1, 0, 1)]);
        assert_eq!(plan.num_stages, 2);
        assert_eq!(plan.steps.len(), 2);
        assert_eq!(plan.steps[0].vertices, vec![3, 5]);
    }

    #[test]
    fn valid_direct_plan_passes() {
        let pg = tiny_pg();
        let plan = CommPlan::from_edges(2, vec![(0, 0, 1, 0), (1, 1, 0, 0)]);
        assert!(validate_plan(&plan, &pg).is_ok());
    }

    #[test]
    fn missing_delivery_is_detected() {
        let pg = tiny_pg();
        let plan = CommPlan::from_edges(2, vec![(0, 0, 1, 0)]);
        assert_eq!(
            validate_plan(&plan, &pg),
            Err(PlanError::UnsatisfiedDemand { vertex: 1, dst: 0 })
        );
    }

    #[test]
    fn sending_unheld_vertex_is_detected() {
        let pg = tiny_pg();
        // GPU 1 does not hold vertex 0 at stage 0.
        let plan = CommPlan::from_edges(2, vec![(0, 1, 0, 0), (1, 1, 0, 0), (0, 0, 1, 0)]);
        assert_eq!(
            validate_plan(&plan, &pg),
            Err(PlanError::SendsUnheldVertex {
                vertex: 0,
                src: 1,
                stage: 0
            })
        );
    }

    #[test]
    fn sending_a_vertex_outside_the_graph_is_detected() {
        let pg = tiny_pg();
        let plan = CommPlan::from_edges(2, vec![(0, 0, 1, 0), (1, 1, 0, 0), (64, 0, 1, 0)]);
        assert_eq!(
            validate_plan(&plan, &pg),
            Err(PlanError::SendsUnheldVertex {
                vertex: 64,
                src: 0,
                stage: 0
            })
        );
    }

    #[test]
    fn a_second_delivery_is_detected() {
        let pg = tiny_pg();
        // Vertex 1 is delivered to GPU 0 at stage 0, then again at stage 1.
        let plan = CommPlan::from_edges(2, vec![(0, 0, 1, 0), (1, 1, 0, 0), (1, 1, 0, 1)]);
        assert_eq!(
            validate_plan(&plan, &pg),
            Err(PlanError::DuplicateDelivery {
                vertex: 1,
                dst: 0,
                stage: 1
            })
        );
    }

    #[test]
    fn forwarding_across_stages_is_allowed() {
        // 3 GPUs in a line of demands: 0 owns v0, both 1 and 2 need it.
        let mut b = GraphBuilder::new(3);
        b.add_edge(0, 1);
        b.add_edge(0, 2);
        let g = b.build_symmetric();
        let pg = PartitionedGraph::new(&g, vec![0, 1, 2], 3);
        let plan = CommPlan::from_edges(
            3,
            vec![
                (0, 0, 1, 0),
                (0, 1, 2, 1), // GPU1 forwards v0 after receiving it.
                (1, 1, 0, 0),
                (2, 2, 0, 0),
            ],
        );
        assert!(validate_plan(&plan, &pg).is_ok());
    }

    #[test]
    fn same_stage_forwarding_is_rejected() {
        let mut b = GraphBuilder::new(3);
        b.add_edge(0, 1);
        b.add_edge(0, 2);
        let g = b.build_symmetric();
        let pg = PartitionedGraph::new(&g, vec![0, 1, 2], 3);
        // GPU1 forwards v0 in the same stage it receives it: illegal.
        let plan = CommPlan::from_edges(
            3,
            vec![(0, 0, 1, 0), (0, 1, 2, 0), (1, 1, 0, 0), (2, 2, 0, 0)],
        );
        assert!(matches!(
            validate_plan(&plan, &pg),
            Err(PlanError::SendsUnheldVertex {
                vertex: 0,
                src: 1,
                stage: 0
            })
        ));
    }

    #[test]
    fn evaluate_charges_the_topology() {
        use dgcl_topology::Topology;
        let plan = CommPlan::from_edges(4, vec![(0, 0, 1, 0)]);
        let topo = Topology::fig6();
        let t = plan.estimated_time(&topo, 24_220_000);
        assert!((t - 1e-3).abs() < 1e-9);
    }
}
