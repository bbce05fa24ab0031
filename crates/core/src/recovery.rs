//! Elastic recovery: checkpoint, evict, replan, resume.
//!
//! The paper's runtime (§6.1) is decentralized — there is no master to
//! restart a dead worker, so the only recovery unit is the whole
//! cluster. [`train_elastic`] wraps
//! [`crate::trainer::train_distributed_resumable`] in a driver loop
//! that makes that restart cheap and bounded:
//!
//! 1. **checkpoint** — rank 0 publishes a partition-independent
//!    [`Checkpoint`] into an in-memory [`CheckpointStore`] after every
//!    completed epoch, and serializes to a
//!    [`CheckpointSink`](crate::checkpoint::CheckpointSink) every `k`
//!    epochs (see [`crate::checkpoint`]);
//! 2. **evict** — on [`ClusterError`], [`ClusterError::dead_ranks`]
//!    identifies the ranks whose failures *originated* locally and
//!    [`Topology::evict_gpus`] removes them (GPUs are leaves of the
//!    routing topology, so survivors stay connected);
//! 3. **replan** — the graph is repartitioned over the survivors and
//!    the SPST planner re-runs with the demand-class cache
//!    ([`SpstConfig::cached`]): the survivors' demands fall into few
//!    classes, so the warm replan resolves most demands from cache
//!    commits where the cold initial plan ran full searches —
//!    [`RecoveryEvent::replan_stats`] records the evidence;
//! 4. **resume** — the checkpoint restores onto the new partition (the
//!    weights are replicated, so "remapping" is rebuilding
//!    [`CommInfo`] and re-dispatching the driver-held global features)
//!    and training continues from the checkpointed epoch.
//!
//! Loss bound: with the in-memory tier a crash costs at most the
//! partial epoch in flight; if the driver's memory is also gone
//! ([`ResumePolicy::SinkOnly`]), at most `k - 1` further epochs.

use std::sync::Arc;
use std::time::Instant;

use dgcl_graph::CsrGraph;
use dgcl_plan::{PlannerStats, SpstConfig};
use dgcl_tensor::Matrix;
use dgcl_topology::Topology;

use crate::checkpoint::{Checkpoint, CheckpointConfig, CheckpointSpec, CheckpointStore};
use crate::comm_info::{build_comm_info, BuildOptions, CommInfo};
use crate::error::ClusterError;
use crate::fabric::FabricConfig;
use crate::trainer::{train_distributed_resumable, TrainConfig, TrainReport};

/// Which checkpoint tier a recovery attempt resumes from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ResumePolicy {
    /// Prefer the per-epoch in-memory store, falling back to the
    /// serialized sink: at most the in-flight epoch is lost.
    #[default]
    Memory,
    /// Ignore the in-memory store and resume from the last serialized
    /// snapshot — models a driver restart where process memory is gone;
    /// at most `every - 1` completed epochs are lost on top of the
    /// in-flight one.
    SinkOnly,
}

/// Configuration of the elastic driver loop.
#[derive(Debug, Clone)]
pub struct RecoveryConfig {
    /// Fabric configuration per attempt: attempt `i` uses `fabrics[i]`,
    /// attempts past the end use [`FabricConfig::default`]. The chaos
    /// suite arms a fault plan for attempt 0 only — replaying the same
    /// plan against renumbered survivors would re-kill them.
    pub fabrics: Vec<FabricConfig>,
    /// How many evictions to tolerate before giving up and returning
    /// the last [`ClusterError`].
    pub max_evictions: usize,
    /// Build options for the initial plan and (with
    /// [`SpstConfig::cached`] as the planner) every survivor replan.
    pub build: BuildOptions,
    /// Serialized-checkpoint cadence; `None` keeps only the in-memory
    /// tier.
    pub spec: Option<CheckpointSpec>,
    /// Which tier resumes after an eviction.
    pub resume: ResumePolicy,
}

impl Default for RecoveryConfig {
    fn default() -> Self {
        Self {
            fabrics: Vec::new(),
            max_evictions: 2,
            build: BuildOptions::default(),
            spec: None,
            resume: ResumePolicy::Memory,
        }
    }
}

/// One eviction + replan + resume round.
#[derive(Debug, Clone)]
pub struct RecoveryEvent {
    /// Ranks evicted, in the *failed attempt's* numbering (each attempt
    /// renumbers survivors densely).
    pub evicted: Vec<usize>,
    /// The rendered [`ClusterError`] that triggered the eviction.
    pub cause: String,
    /// GPUs remaining after the eviction.
    pub survivors: usize,
    /// Completed-epoch count of the checkpoint resumed from (0 when no
    /// checkpoint existed and training restarted from scratch).
    pub resumed_epoch: usize,
    /// Completed epochs discarded by resuming: the in-memory store's
    /// epoch count minus [`RecoveryEvent::resumed_epoch`]. Always 0
    /// under [`ResumePolicy::Memory`]; bounded by `every - 1` under
    /// [`ResumePolicy::SinkOnly`]. The in-flight partial epoch is lost
    /// on top and not counted here.
    pub epochs_lost: usize,
    /// Wall-clock of the survivor replan (partitioning + SPST +
    /// table compilation).
    pub replan_seconds: f64,
    /// The warm replanner's demand-resolution counters.
    pub replan_stats: PlannerStats,
}

/// The outcome of an elastic run that reached the epoch target.
#[derive(Debug, Clone)]
pub struct ElasticReport {
    /// Full training history (checkpointed epochs first), directly
    /// comparable to an uninterrupted run on the final partition.
    pub report: TrainReport,
    /// One entry per eviction round; empty means no failure occurred.
    pub events: Vec<RecoveryEvent>,
    /// Devices in the final (surviving) partition.
    pub final_devices: usize,
    /// The [`CommInfo`] of the final attempt — parity tests reuse it to
    /// rerun the reference on the same survivor partition.
    pub final_info: Arc<CommInfo>,
}

impl ElasticReport {
    /// Total completed epochs discarded across every recovery round.
    pub fn total_epochs_lost(&self) -> usize {
        self.events.iter().map(|e| e.epochs_lost).sum()
    }
}

/// Trains to `cfg.epochs` epochs, recovering from up to
/// [`RecoveryConfig::max_evictions`] cluster failures by evicting dead
/// ranks, replanning over the survivors and resuming from the newest
/// checkpoint (see the module docs for the loop).
///
/// # Errors
///
/// The last [`ClusterError`] when the eviction budget is exhausted, or
/// immediately if an eviction would leave no GPU.
///
/// # Panics
///
/// Panics if `features`/`targets` row counts do not match the graph.
pub fn train_elastic(
    graph: &CsrGraph,
    topology: Topology,
    features: &Matrix,
    targets: &Matrix,
    cfg: &TrainConfig,
    rcfg: &RecoveryConfig,
) -> Result<ElasticReport, ClusterError> {
    let mut topology = topology;
    let mut build = rcfg.build;
    let mut info = Arc::new(build_comm_info(graph, topology.clone(), build));
    let store = CheckpointStore::default();
    let ck = CheckpointConfig {
        store: store.clone(),
        spec: rcfg.spec.clone(),
    };
    let mut resume: Option<Checkpoint> = None;
    let mut events = Vec::new();
    for attempt in 0.. {
        let fabric = rcfg.fabrics.get(attempt).cloned().unwrap_or_default();
        match train_distributed_resumable(
            &info,
            graph,
            features,
            targets,
            cfg,
            fabric,
            resume.as_ref(),
            Some(&ck),
        ) {
            Ok(report) => {
                return Ok(ElasticReport {
                    report,
                    events,
                    final_devices: info.num_devices(),
                    final_info: info,
                })
            }
            Err(err) => {
                let dead = err.dead_ranks();
                if events.len() == rcfg.max_evictions || dead.len() >= topology.num_gpus() {
                    return Err(err);
                }
                topology = topology.evict_gpus(&dead);
                // Warm replan over the survivors: same seed and payload
                // sizing, with the demand-class cache.
                build.spst = SpstConfig::cached();
                let replan_start = Instant::now();
                info = Arc::new(build_comm_info(graph, topology.clone(), build));
                let replan_seconds = replan_start.elapsed().as_secs_f64();
                let newest = store.latest();
                let ckpt = match rcfg.resume {
                    ResumePolicy::Memory => newest
                        .clone()
                        .or_else(|| deserialize_sink(rcfg.spec.as_ref())),
                    ResumePolicy::SinkOnly => deserialize_sink(rcfg.spec.as_ref()),
                };
                let resumed_epoch = ckpt.as_ref().map_or(0, |c| c.epochs_done);
                let newest_epoch = newest.map_or(0, |c| c.epochs_done);
                events.push(RecoveryEvent {
                    evicted: dead,
                    cause: err.to_string(),
                    survivors: topology.num_gpus(),
                    resumed_epoch,
                    epochs_lost: newest_epoch.saturating_sub(resumed_epoch),
                    replan_seconds,
                    replan_stats: info.plan_stats,
                });
                resume = ckpt;
            }
        }
    }
    unreachable!("the attempt loop returns from within");
}

/// The last serialized snapshot, if a sink exists, can read back and
/// holds parseable bytes (corruption degrades to restart-from-scratch,
/// never to a panic).
fn deserialize_sink(spec: Option<&CheckpointSpec>) -> Option<Checkpoint> {
    let bytes = spec?.sink.load()?;
    Checkpoint::deserialize(&bytes).ok()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checkpoint::MemorySink;
    use crate::fault::FaultPlan;
    use dgcl_gnn::Architecture;
    use dgcl_graph::Dataset;
    use dgcl_tensor::XavierInit;

    fn case() -> (CsrGraph, Matrix, Matrix, TrainConfig) {
        let graph = Dataset::WikiTalk.generate(0.0005, 8);
        let n = graph.num_vertices();
        let mut init = XavierInit::new(8);
        let features = init.features(n, 6);
        let targets = init.features(n, 3);
        let cfg = TrainConfig::new(Architecture::Gcn, &[6, 4, 3], 4);
        (graph, features, targets, cfg)
    }

    #[test]
    fn healthy_run_has_no_events() {
        let (graph, features, targets, cfg) = case();
        let report = train_elastic(
            &graph,
            Topology::fig6(),
            &features,
            &targets,
            &cfg,
            &RecoveryConfig::default(),
        )
        .expect("healthy cluster");
        assert!(report.events.is_empty());
        assert_eq!(report.final_devices, 4);
        assert_eq!(report.report.epoch_losses.len(), cfg.epochs);
    }

    #[test]
    fn eviction_budget_exhaustion_returns_error() {
        let (graph, features, targets, cfg) = case();
        // Crash the (renumbered) rank 0 on every attempt; with a budget
        // of 1 eviction the second crash must surface.
        let faulty = FabricConfig {
            faults: FaultPlan::crash_at_epoch(0, 1),
            ..FabricConfig::default()
        };
        let rcfg = RecoveryConfig {
            fabrics: vec![faulty.clone(), faulty],
            max_evictions: 1,
            ..RecoveryConfig::default()
        };
        let err = train_elastic(&graph, Topology::fig6(), &features, &targets, &cfg, &rcfg)
            .expect_err("budget of 1 cannot absorb 2 crashes");
        assert!(err.to_string().contains("epoch 1"), "{err}");
    }

    #[test]
    fn sink_resume_survives_memory_loss() {
        let (graph, features, targets, cfg) = case();
        let sink = MemorySink::shared();
        // Crash rank 0 — the checkpoint publisher — so the epoch-3
        // in-memory publish deterministically precedes the crash on the
        // same thread. (A crash on any other rank races rank 0's final
        // allreduce: the poison can unwind rank 0 before it publishes,
        // leaving memory at epoch 2 and `epochs_lost` at 0.)
        let rcfg = RecoveryConfig {
            fabrics: vec![FabricConfig {
                faults: FaultPlan::crash_at_epoch(0, 3),
                ..FabricConfig::default()
            }],
            spec: Some(CheckpointSpec {
                every: 2,
                sink: sink.clone(),
            }),
            resume: ResumePolicy::SinkOnly,
            ..RecoveryConfig::default()
        };
        let report = train_elastic(&graph, Topology::fig6(), &features, &targets, &cfg, &rcfg)
            .expect("one eviction fits the budget");
        assert_eq!(report.events.len(), 1);
        let ev = &report.events[0];
        // Crash entering epoch 3: memory held epoch 3, the sink epoch 2.
        assert_eq!(ev.resumed_epoch, 2);
        assert_eq!(ev.epochs_lost, 1);
        assert!(ev.epochs_lost < 2, "loss must stay under `every`");
        assert_eq!(report.final_devices, 3);
        assert_eq!(report.report.epoch_losses.len(), cfg.epochs);
    }
}
