//! Communication planning for distributed GNN training (§5 of the paper).
//!
//! Given the *communication relation* (which vertex embeddings each GPU
//! must send to which others, from `dgcl-partition`) and the *communication
//! topology* (from `dgcl-topology`), planning finds, for every vertex, a
//! communication tree rooted at its source GPU covering all destination
//! GPUs, minimising the staged cost model of §5.1.
//!
//! * [`cost::CostState`] — the staged cost model: per-stage, per-directed-
//!   physical-hop volume accounting with `O(hops)` incremental cost
//!   queries (Algorithm 2, computed incrementally).
//! * [`spst::spst_plan`] — the shortest-path-spanning-tree planner
//!   (Algorithm 1), plus [`spst::spst_plan_with_config`], which adds the
//!   demand-class tree cache; both reuse search state and edge weights
//!   without allocating (see the `spst` module docs for the determinism
//!   contract).
//! * [`baselines`] — peer-to-peer, swap (NeuGraph-style) and replication
//!   (Medusa-style) alternatives the paper compares against.
//! * [`plan::CommPlan`] — the staged plan, with a propagation validator.
//! * [`tuples::SendRecvTables`] — the per-device `(d_i, d_j, k, T_s, T_r)`
//!   execution tables of §6.1, including backward reversal and the
//!   non-atomic sub-stage split of §6.2.
//!
//! # Examples
//!
//! ```
//! use dgcl_graph::Dataset;
//! use dgcl_partition::{multilevel::kway, PartitionedGraph};
//! use dgcl_plan::spst::spst_plan;
//! use dgcl_plan::plan::validate_plan;
//! use dgcl_topology::Topology;
//!
//! let graph = Dataset::WebGoogle.generate(0.001, 7);
//! let topo = Topology::dgx1();
//! let parts = kway(&graph, topo.num_gpus(), 7);
//! let pg = PartitionedGraph::new(&graph, parts, topo.num_gpus());
//! let outcome = spst_plan(&pg, &topo, 4 * 256, 7);
//! assert!(validate_plan(&outcome.plan, &pg).is_ok());
//! ```

pub mod baselines;
pub mod cost;
pub mod plan;
pub mod report;
pub mod spst;
pub mod tuples;

pub use cost::CostState;
pub use plan::{CommPlan, CommStep};
pub use spst::{
    spst_plan, spst_plan_with_config, spst_plan_with_order, PlannerStats, SpstConfig, SpstOutcome,
    TreeEdge, VertexOrder,
};
pub use tuples::SendRecvTables;
