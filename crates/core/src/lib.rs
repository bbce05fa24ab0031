//! # DGCL — distributed graph communication library (reproduction)
//!
//! A Rust reproduction of *DGCL: An Efficient Communication Library for
//! Distributed GNN Training* (EuroSys 2021). DGCL extends a single-GPU GNN
//! engine to distributed training: it partitions the graph, plans the
//! embedding exchange with the topology-aware SPST algorithm, and executes
//! the staged plan with decentralized coordination.
//!
//! The original runs on CUDA devices; this reproduction runs each "GPU" as
//! a thread over shared-memory buffers, moving real embedding data so that
//! distributed training can be checked for numerical parity against
//! single-device training, while wall-clock *estimates* for real hardware
//! come from the `dgcl-sim` models.
//!
//! The API mirrors the paper's (§4.2):
//!
//! | Paper | Here |
//! |---|---|
//! | `init()` | [`build_comm_info`] (connection setup is implicit) |
//! | `buildCommInfo(graph, topology)` | [`build_comm_info`] |
//! | `dispatch_features(features)` | [`CommInfo::dispatch_features`] |
//! | `graph_allgather(embeddings)` | [`runtime::DeviceHandle::graph_allgather`] |
//!
//! Beyond the paper, the runtime makes failure a first-class outcome: a
//! device that errors, panics or crashes poisons the shared [`fabric`],
//! every blocked peer unwinds with a typed [`RuntimeError`], and
//! [`run_cluster`] reports one [`ClusterError`] naming the originating
//! rank — the cluster never hangs. The [`fault`] module injects
//! deterministic crash/delay/duplicate/reorder faults for the chaos test
//! suite.
//!
//! # Examples
//!
//! ```
//! use dgcl::{build_comm_info, BuildOptions};
//! use dgcl::trainer::{train_distributed, train_single, TrainConfig};
//! use dgcl_gnn::Architecture;
//! use dgcl_graph::Dataset;
//! use dgcl_tensor::XavierInit;
//! use dgcl_topology::Topology;
//!
//! let graph = Dataset::WikiTalk.generate(0.0005, 1);
//! let info = build_comm_info(&graph, Topology::fig6(), BuildOptions::default());
//! let n = graph.num_vertices();
//! let mut init = XavierInit::new(7);
//! let features = init.features(n, 8);
//! let targets = init.features(n, 4);
//! let cfg = TrainConfig::new(Architecture::Gcn, &[8, 4], 2);
//! let dist = train_distributed(&info, &graph, &features, &targets, &cfg)
//!     .expect("healthy cluster");
//! let single = train_single(&graph, &features, &targets, &cfg);
//! let diff: f32 = dist
//!     .epoch_losses
//!     .iter()
//!     .zip(&single.epoch_losses)
//!     .map(|(a, b)| (a - b).abs())
//!     .sum();
//! assert!(diff < 1e-1 * single.epoch_losses[0].abs().max(1.0));
//! ```

pub mod backend;
pub mod checkpoint;
pub mod collectives;
pub mod comm_info;
pub mod error;
pub mod fabric;
pub mod fault;
pub mod featcache;
pub mod pipeline;
pub mod recovery;
pub mod runtime;
pub mod sampling;
pub mod schedule;
pub mod serving;
pub mod trainer;

pub use backend::{backend_for, CagnetBackend, CommBackend, PlannedBackend};
pub use checkpoint::{
    Checkpoint, CheckpointConfig, CheckpointSink, CheckpointSpec, CheckpointStore,
    CorruptCheckpoint, MemorySink,
};
pub use collectives::{
    AlgorithmSelector, AllreduceAlgo, AllreducePolicy, CollectiveEngine, GroupSpec,
};
pub use comm_info::{build_comm_info, try_build_comm_info, BuildOptions, CommInfo};
pub use dgcl_sim::{BackendChoice, BackendKind, BackendSelector};
pub use error::{ClusterError, ClusterFailure, RuntimeError};
pub use fabric::{Fabric, FabricConfig};
pub use fault::{FaultEvent, FaultPlan};
pub use featcache::{
    CachePolicy, CacheStats, CacheStatsSnapshot, ClusterCache, FeatureCache, FeatureCacheSets,
};
pub use pipeline::PipelineSchedule;
pub use recovery::{train_elastic, ElasticReport, RecoveryConfig, RecoveryEvent, ResumePolicy};
pub use runtime::{run_cluster, run_cluster_with, DeviceHandle};
pub use sampling::{GatherPlan, SamplingConfig};
pub use serving::{InferenceServer, ServedFuture, ServedReply, ServingConfig};
