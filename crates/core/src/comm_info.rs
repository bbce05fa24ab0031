//! `buildCommInfo`: partitioning, planning and table compilation.

use std::sync::{Arc, OnceLock};

use dgcl_graph::CsrGraph;
use dgcl_partition::hierarchical::hierarchical;
use dgcl_partition::simple::block_partition;
use dgcl_partition::{CagnetBlocks, PartitionedGraph};
use dgcl_plan::plan::validate_plan;
use dgcl_plan::{spst_plan_with_config, CommPlan, PlannerStats, SendRecvTables, SpstConfig};
use dgcl_sim::{BackendChoice, BackendKind, BackendSelector};
use dgcl_tensor::Matrix;
use dgcl_topology::Topology;

use crate::backend::BackendPolicy;
use crate::error::RuntimeError;
use crate::featcache::{CachePolicy, FeatureCacheSets};
use crate::pipeline::{self, PipelineSchedule};
use crate::schedule::DeviceSchedule;

/// Options for [`build_comm_info`].
#[derive(Debug, Clone, Copy)]
pub struct BuildOptions {
    /// Seed for partitioning and the SPST vertex shuffle.
    pub seed: u64,
    /// Embedding payload per vertex in bytes, used by the cost model
    /// during planning (the resulting plan is invariant to it, §5.1).
    pub bytes_per_vertex: u64,
    /// Whether the backward tables are split into sub-stages for
    /// non-atomic aggregation (§6.2).
    pub non_atomic: bool,
    /// Rows per chunk for the pipelined collectives. Payloads larger than
    /// this are split into chunk-keyed messages that stream through
    /// relays; `usize::MAX` degenerates to one chunk per payload.
    pub chunk_rows: usize,
    /// How the aggregation backend is chosen. The default pins the
    /// paper's planned path; [`BackendPolicy::Auto`] lets the offline
    /// [`BackendSelector`] take CAGNET when the priced cut is large
    /// enough. Either way [`CommInfo::backend_choice`] records what the
    /// selector would have picked.
    pub backend: BackendPolicy,
    /// Planner configuration. The default is the exact planner
    /// (bit-identical plans, no cache); recovery replans pass
    /// [`SpstConfig::cached`] so the demand-class cache amortises the
    /// survivors' near-identical demands.
    pub spst: SpstConfig,
    /// Hot-vertex remote feature cache policy: the default capacity
    /// policy training runs under. [`CachePolicy::Off`] keeps every path
    /// uncached, and `TrainConfig::feature_cache` can override per run.
    /// The admission ranking is built on first use
    /// ([`CommInfo::feature_cache`]), whatever this says.
    pub feature_cache: CachePolicy,
}

impl Default for BuildOptions {
    fn default() -> Self {
        Self {
            seed: 42,
            bytes_per_vertex: 4 * 256,
            non_atomic: true,
            chunk_rows: 64,
            backend: BackendPolicy::Fixed(BackendKind::Planned),
            spst: SpstConfig::default(),
            feature_cache: CachePolicy::Off,
        }
    }
}

/// Everything DGCL derives from a graph and a topology before training
/// starts: the partition, the communication relation, the SPST plan and
/// the per-device execution tables. Built once and reused by every layer
/// of every epoch.
#[derive(Debug, Clone)]
pub struct CommInfo {
    /// The communication topology.
    pub topology: Topology,
    /// Partition, local graphs and communication relation.
    pub pg: PartitionedGraph,
    /// The SPST communication plan.
    pub plan: CommPlan,
    /// Forward (embedding allgather) tables.
    pub forward_tables: SendRecvTables,
    /// Backward (gradient scatter) tables, sub-staged when requested.
    pub backward_tables: SendRecvTables,
    /// Per device: the forward tables compiled to row references
    /// (grouped stages, pre-resolved vertex ids, scratch sizing).
    pub forward_schedules: Vec<DeviceSchedule>,
    /// Per device: the backward tables compiled likewise.
    pub backward_schedules: Vec<DeviceSchedule>,
    /// Per device: the forward schedule chunked into a dependency-driven
    /// pipeline (see [`crate::pipeline`]).
    pub forward_pipelines: Vec<PipelineSchedule>,
    /// Per device: the backward schedule chunked likewise.
    pub backward_pipelines: Vec<PipelineSchedule>,
    /// SPST wall-clock planning time in seconds.
    pub planning_seconds: f64,
    /// How the planner resolved each demand (full searches vs cache
    /// commits) — the evidence that a warm replan was cheap.
    pub plan_stats: PlannerStats,
    /// The cost model's estimate for one allgather in seconds.
    pub estimated_allgather_seconds: f64,
    /// The aggregation backend every rank runs (the policy's verdict).
    pub backend: BackendKind,
    /// What the offline selector priced, whatever the policy decided.
    pub backend_choice: BackendChoice,
    /// The build-time feature cache policy
    /// ([`BuildOptions::feature_cache`]); training may override it per
    /// run.
    pub feature_cache_policy: CachePolicy,
    /// Feature row width in `f32` elements the cache sizing model
    /// assumes (from [`BuildOptions::bytes_per_vertex`]).
    cache_width: usize,
    /// See [`CommInfo::cagnet`].
    cagnet: OnceLock<Arc<CagnetBlocks>>,
    /// See [`CommInfo::feature_cache`].
    feature_cache: OnceLock<Arc<FeatureCacheSets>>,
}

/// Partitions `graph` across the topology's GPUs (hierarchically when it
/// spans machines), runs the SPST planner and compiles the execution
/// tables. This is the paper's `buildCommInfo(graph, topology)`.
///
/// # Panics
///
/// Panics if the graph is empty, the produced plan fails validation or
/// the tables fail schedule compilation (either would indicate a planner
/// bug, not a user error). Use [`try_build_comm_info`] to receive the
/// compilation failure as a typed error instead.
pub fn build_comm_info(graph: &CsrGraph, topology: Topology, options: BuildOptions) -> CommInfo {
    try_build_comm_info(graph, topology, options)
        .unwrap_or_else(|e| panic!("schedule compilation failed: {e}"))
}

/// [`build_comm_info`] returning schedule-compilation failures as
/// [`RuntimeError::Protocol`] rather than panicking.
///
/// # Errors
///
/// [`RuntimeError::Protocol`] if the planner's tables ask a device to
/// forward a vertex it never received.
///
/// # Panics
///
/// Panics if the graph is empty or the produced plan fails validation.
pub fn try_build_comm_info(
    graph: &CsrGraph,
    topology: Topology,
    options: BuildOptions,
) -> Result<CommInfo, RuntimeError> {
    assert!(graph.num_vertices() > 0, "graph must not be empty");
    let num_gpus = topology.num_gpus();
    let partition = if num_gpus == 1 {
        vec![0u32; graph.num_vertices()]
    } else {
        let sizes: Vec<usize> = topology.gpus_by_machine().iter().map(|g| g.len()).collect();
        hierarchical(graph, &sizes, options.seed)
    };
    let mut pg = PartitionedGraph::new(graph, partition, num_gpus);
    // Price both aggregation backends on the partitioner's cut. The
    // selector is offline and deterministic, so every rank reading this
    // CommInfo agrees on the backend with no negotiation.
    let demand_pairs: Vec<(usize, usize, u64)> = pg
        .demands
        .iter()
        .enumerate()
        .flat_map(|(i, row)| {
            row.iter()
                .enumerate()
                .map(move |(j, vs)| (i, j, vs.len() as u64 * options.bytes_per_vertex))
        })
        .collect();
    let backend_choice = BackendSelector::choose(
        &topology,
        num_gpus,
        graph.num_vertices(),
        options.bytes_per_vertex,
        &demand_pairs,
    );
    let backend = match options.backend {
        BackendPolicy::Auto => backend_choice.kind,
        BackendPolicy::Fixed(kind) => kind,
    };
    let backend = match backend {
        // A single device has nothing to communicate; block-partition
        // bookkeeping would be pure overhead.
        BackendKind::Cagnet { .. } if num_gpus < 2 => BackendKind::Planned,
        BackendKind::Cagnet { replication } => {
            assert!(
                replication >= 1 && num_gpus.is_multiple_of(replication),
                "CAGNET replication {replication} must divide {num_gpus} devices"
            );
            // CAGNET wants contiguous ascending ownership: it makes
            // ascending-round accumulation equal the single-device fold
            // bitwise, and balances the dense panels the broadcasts
            // ship. The planned tables are rebuilt on the same
            // partition so both backends remain callable on one info.
            pg = PartitionedGraph::new(graph, block_partition(graph, num_gpus), num_gpus);
            BackendKind::Cagnet { replication }
        }
        BackendKind::Planned => BackendKind::Planned,
    };
    let outcome = spst_plan_with_config(
        &pg,
        &topology,
        options.bytes_per_vertex,
        options.seed,
        options.spst,
    );
    validate_plan(&outcome.plan, &pg).expect("SPST must produce a valid plan");
    let forward_tables = SendRecvTables::from_plan(&outcome.plan);
    let backward = forward_tables.reversed();
    let backward_tables = if options.non_atomic {
        backward.split_substages()
    } else {
        backward
    };
    let forward_schedules: Vec<DeviceSchedule> = (0..num_gpus)
        .map(|d| DeviceSchedule::forward(&forward_tables, d, pg.local_graph(d)))
        .collect::<Result<_, _>>()?;
    let backward_schedules: Vec<DeviceSchedule> = (0..num_gpus)
        .map(|d| DeviceSchedule::backward(&backward_tables, d, pg.local_graph(d)))
        .collect::<Result<_, _>>()?;
    let forward_pipelines = (0..num_gpus)
        .map(|d| {
            let lg = pg.local_graph(d);
            let sched = &forward_schedules[d];
            let row_space = lg.num_total() + sched.scratch_rows;
            pipeline::compile(sched, row_space, options.chunk_rows)
        })
        .collect();
    let backward_pipelines = (0..num_gpus)
        .map(|d| {
            let lg = pg.local_graph(d);
            let sched = &backward_schedules[d];
            let row_space = lg.num_local + sched.scratch_rows;
            pipeline::compile(sched, row_space, options.chunk_rows)
        })
        .collect();
    Ok(CommInfo {
        topology,
        pg,
        plan: outcome.plan,
        forward_tables,
        backward_tables,
        forward_schedules,
        backward_schedules,
        forward_pipelines,
        backward_pipelines,
        planning_seconds: outcome.planning_seconds,
        plan_stats: outcome.stats,
        estimated_allgather_seconds: outcome.cost.total_time(),
        backend,
        backend_choice,
        feature_cache_policy: options.feature_cache,
        cache_width: (options.bytes_per_vertex / 4).max(1) as usize,
        cagnet: OnceLock::new(),
        feature_cache: OnceLock::new(),
    })
}

impl CommInfo {
    /// Block-partitioned adjacency for the CAGNET backend, built on first
    /// use: a planned run never reads it. `train_distributed` builds it
    /// from the caller's graph before the ranks spawn when the run's
    /// backend is CAGNET; any other first reader builds it from the graph
    /// re-assembled out of the local graphs
    /// ([`PartitionedGraph::global_graph`]), which is the same graph.
    pub fn cagnet(&self) -> &CagnetBlocks {
        self.cagnet
            .get_or_init(|| Arc::new(CagnetBlocks::new(&self.pg.global_graph(), &self.pg)))
    }

    /// Offline feature-cache admission ranking and Auto capacities,
    /// scored on first use: a [`CachePolicy::Off`] run never reads it.
    /// Built like [`CommInfo::cagnet`] (by `train_distributed` when the
    /// run's policy is not `Off`), and scored on the *final* partition
    /// (CAGNET may have rebuilt it), so cached sets always match the
    /// demands the runtime exchanges over.
    pub fn feature_cache(&self) -> &FeatureCacheSets {
        self.feature_cache
            .get_or_init(|| Arc::new(self.score_cache(&self.pg.global_graph())))
    }

    fn score_cache(&self, graph: &CsrGraph) -> FeatureCacheSets {
        FeatureCacheSets::score(graph, &self.pg, self.cache_width, self.feature_cache_policy)
    }

    /// Builds what a run with `backend` and `cache` reads and nothing
    /// else, from `graph` (the graph this info was built from), so the
    /// rank threads find it ready and the global graph is not
    /// re-assembled.
    pub(crate) fn build_for_run(&self, graph: &CsrGraph, backend: BackendKind, cache: CachePolicy) {
        if matches!(backend, BackendKind::Cagnet { .. }) {
            self.cagnet
                .get_or_init(|| Arc::new(CagnetBlocks::new(graph, &self.pg)));
        }
        if cache != CachePolicy::Off {
            self.feature_cache
                .get_or_init(|| Arc::new(self.score_cache(graph)));
        }
    }

    /// Number of simulated devices.
    pub fn num_devices(&self) -> usize {
        self.pg.num_parts
    }

    /// Splits a global feature matrix into per-device local feature
    /// matrices (rows in device-local order). This is the paper's
    /// `dispatch_features`.
    ///
    /// # Panics
    ///
    /// Panics if `features` has fewer rows than the graph has vertices.
    pub fn dispatch_features(&self, features: &Matrix) -> Vec<Matrix> {
        assert_eq!(
            features.rows(),
            self.pg.partition.len(),
            "feature rows must match vertex count"
        );
        (0..self.num_devices())
            .map(|d| {
                let rows: Vec<usize> = self.pg.local[d].iter().map(|&v| v as usize).collect();
                features.gather_rows(&rows)
            })
            .collect()
    }

    /// Reassembles per-device row blocks into a global matrix (the
    /// inverse of [`CommInfo::dispatch_features`] for outputs).
    ///
    /// # Panics
    ///
    /// Panics if block shapes do not match the partition.
    pub fn collect_outputs(&self, per_device: &[Matrix]) -> Matrix {
        assert_eq!(per_device.len(), self.num_devices(), "device count");
        let cols = per_device.first().map_or(0, Matrix::cols);
        let mut out = Matrix::zeros(self.pg.partition.len(), cols);
        for (d, block) in per_device.iter().enumerate() {
            assert_eq!(block.rows(), self.pg.local[d].len(), "block rows");
            for (i, &v) in self.pg.local[d].iter().enumerate() {
                out.set_row(v as usize, block.row(i));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dgcl_graph::Dataset;

    fn info() -> (CsrGraph, CommInfo) {
        let graph = Dataset::WikiTalk.generate(0.0005, 3);
        let info = build_comm_info(&graph, Topology::fig6(), BuildOptions::default());
        (graph, info)
    }

    #[test]
    fn builds_valid_plan_and_tables() {
        let (_, info) = info();
        assert_eq!(info.num_devices(), 4);
        assert!(info.estimated_allgather_seconds > 0.0);
        assert_eq!(info.forward_tables.num_gpus, 4);
    }

    #[test]
    fn dispatch_and_collect_round_trip() {
        let (graph, info) = info();
        let n = graph.num_vertices();
        let mut init = dgcl_tensor::XavierInit::new(5);
        let features = init.features(n, 6);
        let dispatched = info.dispatch_features(&features);
        let sizes: usize = dispatched.iter().map(Matrix::rows).sum();
        assert_eq!(sizes, n);
        let collected = info.collect_outputs(&dispatched);
        assert_eq!(collected, features);
    }

    #[test]
    fn derived_structures_are_built_by_need() {
        let (graph, info) = info();
        let built = |i: &CommInfo| (i.cagnet.get().is_some(), i.feature_cache.get().is_some());
        info.build_for_run(&graph, BackendKind::Planned, CachePolicy::Off);
        assert_eq!(built(&info), (false, false));
        let lazy = info.clone();
        info.build_for_run(
            &graph,
            BackendKind::Cagnet { replication: 1 },
            CachePolicy::Auto,
        );
        assert_eq!(built(&info), (true, true));
        // A first reader with no graph at hand re-assembles it from the
        // local graphs and builds the same structures.
        assert_eq!(
            format!("{:?}", lazy.cagnet()),
            format!("{:?}", info.cagnet())
        );
        assert_eq!(
            format!("{:?}", lazy.feature_cache()),
            format!("{:?}", info.feature_cache())
        );
    }

    #[test]
    fn single_gpu_build_has_empty_plan() {
        let graph = Dataset::WebGoogle.generate(0.0005, 4);
        let info = build_comm_info(&graph, Topology::dgx1_subset(1), BuildOptions::default());
        assert!(info.plan.steps.is_empty());
        assert_eq!(info.num_devices(), 1);
    }

    #[test]
    fn atomic_option_skips_substage_split() {
        let graph = Dataset::WikiTalk.generate(0.0005, 3);
        let opts = BuildOptions {
            non_atomic: false,
            ..BuildOptions::default()
        };
        let info = build_comm_info(&graph, Topology::fig6(), opts);
        assert_eq!(info.backward_tables.num_substages, 1);
    }
}
