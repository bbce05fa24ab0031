//! Execution simulation for the DGCL reproduction.
//!
//! The paper's numbers come from real V100/1080-Ti clusters; this crate
//! substitutes a deterministic simulator with three parts:
//!
//! * [`network`] — a fluid-flow model of staged transfers with *max-min
//!   fair sharing* on every directed physical hop plus per-flow transport
//!   overheads. Where the planner's cost model (in `dgcl-plan`) makes the
//!   simplifying stage-max assumption, this simulator resolves contention
//!   continuously — the divergence between the two is exactly what
//!   Figure 10 of the paper studies.
//! * [`compute`] — a roofline-style GNN compute-time model (memory-bound
//!   aggregation, flop-bound dense updates) with V100 and 1080-Ti
//!   profiles.
//! * [`memory`] — per-GPU memory accounting with out-of-memory detection
//!   (replication OOMs on the large graphs in Figure 7, as in the paper).
//! * [`epoch`] — end-to-end per-epoch simulation combining the three for
//!   every communication method the paper evaluates.
//! * [`minibatch`] — the volume model for sampled mini-batch training
//!   (expected block volumes per fanout/batch setting).
//! * [`cache`] — an α–β sizing model for the hot-vertex remote feature
//!   cache (hit rate vs capacity vs gather volume saved).

pub mod backends;
pub mod cache;
pub mod collectives;
pub mod compute;
pub mod epoch;
pub mod memory;
pub mod minibatch;
pub mod network;
pub mod transport;

pub use backends::{
    cagnet_aggregate_cost, planned_gather_cost, BackendChoice, BackendKind, BackendSelector,
};
pub use cache::CacheModel;
pub use collectives::{allreduce_cost, allreduce_costs, AlgorithmSelector, AllreduceAlgo};
pub use compute::{GnnModel, GpuProfile};
pub use epoch::{
    simulate_epoch, simulate_overlap, EpochBreakdown, EpochConfig, Method, OverlapBreakdown,
};
pub use minibatch::SamplingModel;
pub use network::{simulate_flows, simulate_plan, simulate_plan_pipelined, Flow, NetworkReport};
